#include "util/thread_pool.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/env.hpp"

namespace rmcc::util
{

namespace
{

//! Pool-worker index of this thread; -1 off-pool.  Set once at worker
//! startup, so reads need no synchronization.
thread_local int t_worker_id = -1;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] {
            t_worker_id = static_cast<int>(i);
            workerLoop();
        });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(job));
        ++in_flight_;
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    MutexLock lock(mutex_);
    idle_cv_.wait(lock,
                  [this]() RMCC_REQUIRES(mutex_) { return in_flight_ == 0; });
    if (!errors_.empty()) {
        std::exception_ptr first = errors_.front();
        errors_.clear();
        lock.unlock();
        std::rethrow_exception(first);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            MutexLock lock(mutex_);
            work_cv_.wait(lock, [this]() RMCC_REQUIRES(mutex_) {
                return stop_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            job();
        } catch (...) {
            MutexLock lock(mutex_);
            errors_.push_back(std::current_exception());
        }
        {
            MutexLock lock(mutex_);
            if (--in_flight_ == 0)
                idle_cv_.notify_all();
        }
    }
}

int
ThreadPool::currentWorkerId()
{
    return t_worker_id;
}

int
currentWorkerId()
{
    return ThreadPool::currentWorkerId();
}

unsigned
ThreadPool::envJobs()
{
    if (const auto v = envPositive("RMCC_JOBS")) {
        if (*v > 4096)
            throw std::runtime_error(
                "RMCC_JOBS: expected a sane thread count, got " +
                std::to_string(*v));
        return static_cast<unsigned>(*v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n <= 1 || pool.threadCount() <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace rmcc::util

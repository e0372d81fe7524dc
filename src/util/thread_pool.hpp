/**
 * @file
 * Fixed-size thread pool used to fan the (workload x configuration)
 * simulation grid across cores.
 *
 * The pool is deliberately minimal — a FIFO queue, N workers, and a
 * blocking wait() — because the experiment runner's tasks are coarse
 * (whole simulations) and independent; work stealing would buy nothing.
 * Concurrency for the suite runner is controlled by the RMCC_JOBS
 * environment variable (see envJobs()); RMCC_JOBS=1 is a pool of one,
 * on which parallelFor() runs every index inline, in order.
 */
#ifndef RMCC_UTIL_THREAD_POOL_HPP
#define RMCC_UTIL_THREAD_POOL_HPP

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rmcc::util
{

/** A fixed set of worker threads draining a FIFO job queue. */
class ThreadPool
{
  public:
    /** Spawn the workers; at least one thread is always created. */
    explicit ThreadPool(unsigned threads);

    /** Drains remaining jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue one job; runs on some worker in FIFO order. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished.  If any job threw,
     * the first captured exception is rethrown here and the others are
     * dropped (the remaining jobs still run to completion).
     */
    void wait();

    /**
     * Pool-worker index of the calling thread: 0 .. threadCount()-1 on a
     * pool worker, -1 on any other thread (main, detached helpers).
     * Observability uses this to assign trace lanes; ids are stable for
     * a thread's lifetime but reused across pool instances.
     */
    static int currentWorkerId();

    /**
     * Job-count policy: the RMCC_JOBS environment variable when set,
     * otherwise std::thread::hardware_concurrency() (and 1 when even
     * that is unknown).
     *
     * @throws std::runtime_error when RMCC_JOBS is set to anything but a
     *         positive integer — a typo like RMCC_JOBS=banana used to
     *         silently fall back and run at a surprise width.
     */
    static unsigned envJobs();

  private:
    void workerLoop();

    std::vector<std::thread> workers_; //!< Main-thread-only after ctor.
    Mutex mutex_;
    CondVar work_cv_;
    CondVar idle_cv_;
    std::deque<std::function<void()>> queue_ RMCC_GUARDED_BY(mutex_);
    //! Jobs queued or currently running.
    std::size_t in_flight_ RMCC_GUARDED_BY(mutex_) = 0;
    bool stop_ RMCC_GUARDED_BY(mutex_) = false;
    //! Captured job errors; wait() rethrows the first.
    std::vector<std::exception_ptr> errors_ RMCC_GUARDED_BY(mutex_);
};

/**
 * Run fn(0) .. fn(n-1) across the pool and block until all complete.
 * With a single-threaded pool (or n <= 1) the calls run inline on the
 * caller's thread, in index order — the bit-for-bit serial path.
 */
void parallelFor(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** Free-function alias for ThreadPool::currentWorkerId(). */
int currentWorkerId();

} // namespace rmcc::util

#endif // RMCC_UTIL_THREAD_POOL_HPP

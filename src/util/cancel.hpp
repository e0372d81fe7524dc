/**
 * @file
 * Cooperative cancellation for long-running simulation cells.
 *
 * Simulations cannot be preempted safely mid-flight (component state and
 * obs buffers would be torn), so cancellation is cooperative: the suite
 * runner installs a thread-local CancelScope around each cell carrying
 * its deadline (RMCC_CELL_TIMEOUT_MS), and the simulator hot loops call
 * pollCancel() every few thousand records.  A tripped scope throws
 * CancelledError, which unwinds the cell cleanly through the ordinary
 * failure path.  With no deadline installed, pollCancel() is a
 * thread-local load and a predicted branch, so bit-identity and replay
 * throughput are untouched.
 *
 * Thread-safety audit (see docs/STATIC_ANALYSIS.md): this module is
 * deliberately mutex-free.  All scope state is thread_local — one
 * ScopeState per thread, never shared — so there is nothing for
 * RMCC_GUARDED_BY to guard.
 */
#ifndef RMCC_UTIL_CANCEL_HPP
#define RMCC_UTIL_CANCEL_HPP

#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace rmcc::util
{

/** Thrown by pollCancel() when the installed scope's deadline elapsed. */
class CancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII installer of the current thread's cancellation scope.
 *
 * Scopes do not nest: constructing a second scope on the same thread
 * replaces the first until it is destroyed (the suite runner installs
 * exactly one per cell, so nesting never happens in practice).
 */
class CancelScope
{
  public:
    /** @param timeout_ms Deadline from now; 0 means no deadline. */
    explicit CancelScope(std::uint64_t timeout_ms);
    ~CancelScope();

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    std::chrono::steady_clock::time_point prev_deadline_;
    std::uint64_t prev_timeout_ms_;
};

/**
 * Throw CancelledError if the current scope's deadline has passed; no-op
 * without a deadline.  Hot loops call this every few thousand iterations.
 */
void pollCancel();

} // namespace rmcc::util

#endif // RMCC_UTIL_CANCEL_HPP

/**
 * @file
 * Internal: windowed trace iteration shared by both simulators and the
 * precondition pass.
 *
 * TraceDrive walks a TraceSource's windows and records the host time
 * each advance blocked on trace I/O into the TraceIo latency histogram
 * (spilled sources only — the in-RAM cursor has no I/O and registers
 * nothing).
 *
 * The per-record inner loops stay in the simulators; all window
 * bookkeeping lives here so the three replay sites cannot drift apart.
 */
#ifndef RMCC_SIM_TRACE_DRIVE_HPP
#define RMCC_SIM_TRACE_DRIVE_HPP

#include <chrono>

#include "obs/registry.hpp"
#include "trace/trace_source.hpp"

namespace rmcc::sim::detail
{

class TraceDrive
{
  public:
    /**
     * @param src trace to replay (borrowed).
     * @param obs run registry for the TraceIo histogram; may be null.
     */
    TraceDrive(const trace::TraceSource &src, obs::Registry *obs)
        : obs_(obs), cur_(src.cursor())
    {
    }

    /** Advance to the next window; false at end of trace. */
    bool advance()
    {
        using clock = std::chrono::steady_clock;
        const bool timed = obs_ != nullptr && cur_->ioStats() != nullptr;
        const auto t0 = timed ? clock::now() : clock::time_point{};
        w_ = cur_->next();
        if (w_.count == 0)
            return false;
        if (timed)
            obs_->recordLatency(
                obs::LatencyHist::TraceIo,
                static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clock::now() - t0)
                        .count()));
        return true;
    }

    /** The current window (valid after advance() returned true). */
    const trace::TraceWindow &window() const { return w_; }

    /** Cursor I/O counters; nullptr for in-RAM sources. */
    const trace::TraceIoStats *ioStats() const { return cur_->ioStats(); }

  private:
    obs::Registry *obs_;
    std::unique_ptr<trace::TraceCursor> cur_;
    trace::TraceWindow w_;
};

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_TRACE_DRIVE_HPP

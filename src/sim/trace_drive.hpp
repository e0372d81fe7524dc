/**
 * @file
 * Internal: windowed trace iteration shared by both simulators' measured
 * loops and the front-end recording pass.
 *
 * TraceDrive walks a TraceSource's windows and records the host time
 * each advance blocked on trace I/O into the TraceIo latency histogram
 * (spilled sources only — the in-RAM cursor has no I/O and registers
 * nothing).
 *
 * Window bookkeeping lives here and the per-record work stays with each
 * caller, so the sites cannot drift apart.  Only the recording pass
 * translates (the forEachRecord overload taking a PageMapper); the
 * measured loops read each record's physical addresses from the
 * recording.
 */
#ifndef RMCC_SIM_TRACE_DRIVE_HPP
#define RMCC_SIM_TRACE_DRIVE_HPP

#include <chrono>
#include <cstddef>

#include "address/page_mapper.hpp"
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

    /**
     * Replay every window in trace order: body(first, recs, n), where
     * recs[k] is record first + k.
     */
    template <class Body>
    void forEachWindow(Body &&body)
    {
        std::size_t first = 0;
        while (advance()) {
            const trace::TraceWindow w = w_; // locals: body may alias *this
            body(first, w.data, w.count);
            first += w.count;
        }
    }

    /** Replay every record in trace order: body(i, rec) for record i. */
    template <class Body>
    void forEachRecord(Body &&body)
    {
        forEachWindow(
            [&](std::size_t first, const trace::Record *recs, std::size_t n) {
                for (std::size_t k = 0; k < n; ++k)
                    body(first + k, recs[k]);
            });
    }

    /**
     * Replay and translate every record in trace order with a one-record
     * lookahead.  Before body(i, rec, paddr) runs for record i, record
     * i+1's address is translated and passed to prefetch(next_paddr), so
     * the loads record i+1 will need are in flight while record i is
     * simulated; the window's `ahead` record carries the lookahead across
     * window boundaries.  Translating v[i+1] right after v[i] keeps the
     * exact first-touch order v0, v1, v2, ... of a plain loop, so
     * page-frame assignment, and with it every physical address, is
     * unchanged, provided prefetch is pure and body never translates.
     */
    template <class Prefetch, class Body>
    void forEachRecord(addr::PageMapper &mapper, Prefetch &&prefetch,
                       Body &&body)
    {
        if (!advance())
            return;
        addr::Addr next_paddr = mapper.translate(w_.data[0].vaddr);
        std::size_t i = 0;
        do {
            const trace::TraceWindow w = w_; // locals: body may alias *this
            for (std::size_t k = 0; k < w.count; ++k, ++i) {
                const addr::Addr paddr = next_paddr;
                const trace::Record *nxt =
                    k + 1 < w.count ? &w.data[k + 1] : w.ahead;
                if (nxt != nullptr) {
                    next_paddr = mapper.translate(nxt->vaddr);
                    prefetch(next_paddr);
                }
                body(i, w.data[k], paddr);
            }
        } while (advance());
    }

    /** Cursor I/O counters; nullptr for in-RAM sources. */
    const trace::TraceIoStats *ioStats() const { return cur_->ioStats(); }

  private:
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

    obs::Registry *obs_;
    std::unique_ptr<trace::TraceCursor> cur_;
    trace::TraceWindow w_;
};

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_TRACE_DRIVE_HPP

/**
 * @file
 * High-counter candidate monitor (paper Sec IV-C3).
 *
 * When counters climb above Max-Counter-in-Table, memoization-aware update
 * has nothing to aim at.  The monitor watches a ladder of candidate start
 * values above the current table maximum X — X+1+8i (i = 0..16) and
 * X+129+2^j (j = 4..17) — counts, per candidate, how many read requests
 * used a counter value *below* it, and, once 2 K reads with counters above
 * X have accumulated, selects the smallest candidate that covers at least
 * 98% of the reads observed since arming.
 *
 * Each read adds to one bucket of a histogram over the ladder's gaps,
 * found arithmetically from the read's distance above X (no compare per
 * rung, no search); the per-candidate "below" counts are its prefix
 * sums, formed only once the trigger has fired.
 */
#ifndef RMCC_CORE_CANDIDATE_MONITOR_HPP
#define RMCC_CORE_CANDIDATE_MONITOR_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "address/types.hpp"

namespace rmcc::core
{

/** Tuning knobs of the candidate monitor. */
struct MonitorConfig
{
    std::uint64_t trigger_reads = 2048; //!< "many (e.g., 2K)" high reads.
    double coverage_goal = 0.98;        //!< The 98% requirement.
};

/**
 * Per-level candidate monitor.
 */
class CandidateMonitor
{
  public:
    explicit CandidateMonitor(const MonitorConfig &cfg = MonitorConfig());

    /**
     * Re-arm around a new table maximum X; resets counts and recomputes
     * the candidate ladder.
     */
    void arm(addr::CounterValue max_in_table);

    /** Observe the counter value used by one read request. */
    // rmcc-lint: hot-path
    void observeRead(addr::CounterValue v)
    {
        ++total_reads_;
        if (v <= armed_max_) {
            ++hist_[0]; // below the first rung X+1, so below every rung
            return;
        }
        ++high_reads_;
        ++hist_[rungsAtOrBelow(v - armed_max_)];
    }

    /** Whether the 2 K trigger has fired (takeSelection has a value). */
    bool triggered() const { return high_reads_ >= cfg_.trigger_reads; }

    /**
     * If the 2 K trigger has fired, return the selected start value for a
     * new Memoized Counter Value Group (and expect the caller to re-arm).
     * The caller must still apply the Observed-System-Max cap.
     */
    std::optional<addr::CounterValue> takeSelection();

    /** Candidate ladder for the current arming (tests). */
    const std::vector<addr::CounterValue> &candidates() const
    {
        return candidates_;
    }

    /** Reads observed above the armed maximum since arming. */
    std::uint64_t highReads() const { return high_reads_; }

  private:
    //! Rungs on the ladder: X+1+8i (17) and X+129+2^j (14).
    static constexpr std::size_t kRungs = 17 + 14;

    /**
     * How many rungs lie at or below X+d, for d >= 1: the histogram
     * bucket of a read at distance d above X.  X+1+8i <= X+d for
     * i <= (d-1)/8, and X+129+2^j <= X+d for 2^j <= d-129.
     */
    static std::size_t rungsAtOrBelow(addr::CounterValue d)
    {
        if (d < 129 + 16) // below the first exponential rung X+145
            return static_cast<std::size_t>(std::min<addr::CounterValue>(
                (d - 1) / 8 + 1, 17));
        const auto j = static_cast<std::size_t>(std::bit_width(d - 129)) - 1;
        return 17 + std::min<std::size_t>(j, 17) - 3;
    }

    MonitorConfig cfg_;
    addr::CounterValue armed_max_ = 0;
    std::vector<addr::CounterValue> candidates_;
    //! hist_[b]: reads with exactly b rungs at or below their value, i.e.
    //! below rung b and every rung after it.
    std::array<std::uint64_t, kRungs + 1> hist_{};
    std::uint64_t total_reads_ = 0;
    std::uint64_t high_reads_ = 0;
};

} // namespace rmcc::core

#endif // RMCC_CORE_CANDIDATE_MONITOR_HPP

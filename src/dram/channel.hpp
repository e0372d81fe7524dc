/**
 * @file
 * One DRAM channel: banks, shared data bus, refresh, and an FR-FCFS-Capped
 * row-hit streak limit.
 */
#ifndef RMCC_DRAM_CHANNEL_HPP
#define RMCC_DRAM_CHANNEL_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dram/bank.hpp"
#include "dram/mapping.hpp"

namespace rmcc::dram
{

/** Completion information for one 64 B transfer. */
struct DramCompletion
{
    double done_ns;     //!< Time the block is fully transferred.
    RowOutcome outcome; //!< Row-buffer outcome.
};

/** Aggregated channel statistics. */
struct ChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_closed = 0;
    std::uint64_t row_conflicts = 0;
    double bus_busy_ns = 0.0;
};

/**
 * Channel timing model.
 *
 * Requests are served in arrival order (the simulators issue them in
 * program order); bank conflicts, bus serialization, refresh windows, and
 * the FR-FCFS row-hit cap shape each request's completion time.  Writes are
 * posted: they occupy the bank and bus but complete immediately from the
 * core's perspective.
 */
class Channel
{
  public:
    explicit Channel(const DramConfig &cfg);

    /** Serve one block transfer at earliest time t_ns. */
    DramCompletion serve(const DramCoord &coord, bool is_write, double t_ns)
    {
        const std::size_t bank_idx =
            static_cast<std::size_t>(coord.rank) * cfg_.banks_per_rank +
            coord.bank;
        Bank &bank = banks_[bank_idx];

        double t = refreshAdjust(coord.rank, t_ns);

        RowOutcome outcome;
        double data_at = bank.issue(t, coord.row, cfg_, burst_ns_, outcome);

        // FR-FCFS-Capped: after `cap` consecutive row hits the scheduler
        // lets an older row-miss request in, which closes our row; charge
        // the full conflict path on the capped access.
        if (outcome == RowOutcome::Hit) {
            if (++hit_streak_[bank_idx] > cfg_.frfcfs_cap) {
                hit_streak_[bank_idx] = 0;
                outcome = RowOutcome::Conflict;
                data_at += cfg_.tRP_ns + cfg_.tRCD_ns;
            }
        } else {
            hit_streak_[bank_idx] = 0;
        }

        switch (outcome) {
          case RowOutcome::Hit:
            ++stats_.row_hits;
            break;
          case RowOutcome::Closed:
            ++stats_.row_closed;
            break;
          case RowOutcome::Conflict:
            ++stats_.row_conflicts;
            break;
        }

        // Serialize the burst on the shared data bus.
        const double burst_start = std::max(data_at, bus_free_ns_);
        const double done = burst_start + burst_ns_;
        bus_free_ns_ = done;
        stats_.bus_busy_ns += burst_ns_;

        if (is_write)
            ++stats_.writes;
        else
            ++stats_.reads;

        return {done, outcome};
    }

    const ChannelStats &stats() const { return stats_; }
    void resetStats() { stats_ = ChannelStats(); }

    /** Time the shared data bus is committed through (observability). */
    double busFreeNs() const { return bus_free_ns_; }

  private:
    /** Apply refresh blackout for a rank to a candidate issue time. */
    double refreshAdjust(unsigned rank, double t_ns)
    {
        double &next = next_refresh_[rank];
        // Catch the schedule up to the present.
        while (t_ns >= next + cfg_.tRFC_ns)
            next += cfg_.tREFI_ns;
        if (t_ns >= next) {
            // Inside the blackout: wait for tRFC to finish.
            const double resume = next + cfg_.tRFC_ns;
            next += cfg_.tREFI_ns;
            return resume;
        }
        return t_ns;
    }

    DramConfig cfg_;
    double burst_ns_; //!< cfg_.burstNs(), computed once.
    std::vector<Bank> banks_;           // ranks * banks_per_rank
    std::vector<double> next_refresh_;  // per rank
    std::vector<std::uint64_t> hit_streak_; // per bank, for the cap
    double bus_free_ns_ = 0.0;
    ChannelStats stats_;
};

} // namespace rmcc::dram

#endif // RMCC_DRAM_CHANNEL_HPP

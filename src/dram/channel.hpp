/**
 * @file
 * One DRAM channel: banks, shared data bus, refresh, and an FR-FCFS-Capped
 * row-hit streak limit.
 */
#ifndef RMCC_DRAM_CHANNEL_HPP
#define RMCC_DRAM_CHANNEL_HPP

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
    Channel(const DramConfig &cfg, unsigned channel_index);

    /** Serve one block transfer at earliest time t_ns. */
    DramCompletion serve(const DramCoord &coord, bool is_write,
                         double t_ns);

    const ChannelStats &stats() const { return stats_; }
    void resetStats() { stats_ = ChannelStats(); }

    /** Time the shared data bus is committed through (observability). */
    double busFreeNs() const { return bus_free_ns_; }

  private:
    /** Apply refresh blackout for a rank to a candidate issue time. */
    double refreshAdjust(unsigned rank, double t_ns);

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

/**
 * @file
 * DDR4 memory-system front end: address decode plus per-channel timing.
 * Plays the role Ramulator plays in the paper's evaluation.
 */
#ifndef RMCC_DRAM_DDR4_HPP
#define RMCC_DRAM_DDR4_HPP

#include <memory>
#include <vector>

#include "dram/channel.hpp"

namespace rmcc::dram
{

/**
 * Whole DRAM subsystem.
 */
class Ddr4
{
  public:
    explicit Ddr4(const DramConfig &cfg = DramConfig());

    /**
     * Serve a 64 B transfer for byte address a at earliest time t_ns.
     * Writes are posted (see Channel); the returned time is when the burst
     * finishes on the bus.
     */
    // rmcc-lint: hot-path
    DramCompletion access(addr::Addr a, bool is_write, double t_ns)
    {
        const DramCoord coord = mapper_.decode(a);
        return channels_[coord.channel].serve(coord, is_write, t_ns);
    }

    /** Total 64 B transfers served. */
    std::uint64_t totalAccesses() const;

    /** Sum of per-channel stats. */
    ChannelStats aggregateStats() const;

    const DramConfig &config() const { return cfg_; }

    void resetStats();

    /**
     * Queue-depth proxy for observability: the furthest any channel's
     * data bus is committed beyond now_ns (0 when all buses are free).
     * The model has no explicit request queue — bus backlog is the
     * closest analogue of one.
     */
    double busBacklogNs(double now_ns) const;

  private:
    DramConfig cfg_;
    AddressMapper mapper_;
    std::vector<Channel> channels_;
};

} // namespace rmcc::dram

#endif // RMCC_DRAM_DDR4_HPP

#include "dram/ddr4.hpp"

#include <algorithm>

namespace rmcc::dram
{

Ddr4::Ddr4(const DramConfig &cfg) : cfg_(cfg), mapper_(cfg)
{
    channels_.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c)
        channels_.emplace_back(cfg_);
}

std::uint64_t
Ddr4::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &c : channels_)
        n += c.stats().reads + c.stats().writes;
    return n;
}

ChannelStats
Ddr4::aggregateStats() const
{
    ChannelStats agg;
    for (const auto &c : channels_) {
        const auto &s = c.stats();
        agg.reads += s.reads;
        agg.writes += s.writes;
        agg.row_hits += s.row_hits;
        agg.row_closed += s.row_closed;
        agg.row_conflicts += s.row_conflicts;
        agg.bus_busy_ns += s.bus_busy_ns;
    }
    return agg;
}

double
Ddr4::busBacklogNs(double now_ns) const
{
    double backlog = 0.0;
    for (const auto &c : channels_)
        backlog = std::max(backlog, c.busFreeNs() - now_ns);
    return backlog;
}

void
Ddr4::resetStats()
{
    for (auto &c : channels_)
        c.resetStats();
}

} // namespace rmcc::dram

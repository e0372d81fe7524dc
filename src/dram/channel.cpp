#include "dram/channel.hpp"

namespace rmcc::dram
{

Channel::Channel(const DramConfig &cfg)
    : cfg_(cfg),
      burst_ns_(cfg.burstNs()),
      banks_(static_cast<std::size_t>(cfg.ranks) * cfg.banks_per_rank),
      next_refresh_(cfg.ranks, 0.0),
      hit_streak_(banks_.size(), 0)
{
    // Stagger refresh across ranks so they do not blackout simultaneously.
    for (unsigned r = 0; r < cfg_.ranks; ++r)
        next_refresh_[r] =
            cfg_.tREFI_ns * (static_cast<double>(r) + 1.0) /
            static_cast<double>(cfg_.ranks);
}

} // namespace rmcc::dram

#include "dram/channel.hpp"

#include <algorithm>

namespace rmcc::dram
{

Channel::Channel(const DramConfig &cfg, unsigned channel_index)
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
    (void)channel_index;
}

double
Channel::refreshAdjust(unsigned rank, double t_ns)
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

DramCompletion
Channel::serve(const DramCoord &coord, bool is_write, double t_ns)
{
    const std::size_t bank_idx =
        static_cast<std::size_t>(coord.rank) * cfg_.banks_per_rank +
        coord.bank;
    Bank &bank = banks_[bank_idx];

    double t = refreshAdjust(coord.rank, t_ns);

    RowOutcome outcome;
    double data_at = bank.issue(t, coord.row, cfg_, burst_ns_, outcome);

    // FR-FCFS-Capped: after `cap` consecutive row hits the scheduler lets
    // an older row-miss request in, which closes our row; charge the full
    // conflict path on the capped access.
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

} // namespace rmcc::dram

#include "core/candidate_monitor.hpp"

#include <algorithm>

namespace rmcc::core
{

CandidateMonitor::CandidateMonitor(const MonitorConfig &cfg) : cfg_(cfg)
{
    arm(0);
}

void
CandidateMonitor::arm(addr::CounterValue max_in_table)
{
    armed_max_ = max_in_table;
    candidates_.clear();
    // X+1+8i for i = 0..16: fine-grained rungs just above the table.
    for (unsigned i = 0; i <= 16; ++i)
        candidates_.push_back(max_in_table + 1 + 8ULL * i);
    // X+129+2^j for j = 4..17: exponential rungs reaching ~131 K above.
    for (unsigned j = 4; j <= 17; ++j)
        candidates_.push_back(max_in_table + 129 + (1ULL << j));
    hist_.fill(0);
    total_reads_ = 0;
    high_reads_ = 0;
}

// rmcc-lint: hot-path
void
CandidateMonitor::observeRead(addr::CounterValue v)
{
    ++total_reads_;
    if (v <= armed_max_) {
        ++hist_[0]; // below the first rung X+1, so below every rung
        return;
    }
    ++high_reads_;
    // The ladder ascends strictly: the read is below exactly the rungs
    // from the first one above v onward.
    ++hist_[static_cast<std::size_t>(
        std::upper_bound(candidates_.begin(), candidates_.end(), v) -
        candidates_.begin())];
}

std::optional<addr::CounterValue>
CandidateMonitor::takeSelection()
{
    if (high_reads_ < cfg_.trigger_reads)
        return std::nullopt;
    const double goal =
        cfg_.coverage_goal * static_cast<double>(total_reads_);
    // Smallest candidate covering >= 98% of observed reads; if even the
    // top rung falls short, take the top rung (the ladder re-arms higher
    // next time and ratchets up).
    std::uint64_t below = 0;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
        below += hist_[c];
        if (static_cast<double>(below) >= goal)
            return candidates_[c];
    }
    return candidates_.back();
}

} // namespace rmcc::core

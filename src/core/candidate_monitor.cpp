#include "core/candidate_monitor.hpp"

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

std::optional<addr::CounterValue>
CandidateMonitor::takeSelection()
{
    if (!triggered())
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

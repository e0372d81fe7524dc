#include "core/rmcc_engine.hpp"

#include <algorithm>
#include <vector>

namespace rmcc::core
{

RmccEngine::RmccEngine(const RmccConfig &cfg, ctr::IntegrityTree &tree)
    : cfg_(cfg), tree_(tree)
{
    const unsigned n =
        std::min(cfg_.memo_levels, tree_.levels());
    for (unsigned l = 0; l < n; ++l) {
        auto state = std::make_unique<LevelState>();
        state->table = std::make_unique<MemoTable>(cfg_.memo);
        state->monitor = std::make_unique<CandidateMonitor>(cfg_.monitor);
        state->budget = std::make_unique<TrafficBudget>(cfg_.budget);
        state->policy = std::make_unique<UpdatePolicy>(
            *state->table, *state->budget, cfg_.enabled,
            /*allow_far_relevel=*/l == 0);
        levels_.push_back(std::move(state));
    }
}

addr::CounterValue
RmccEngine::capStart(addr::CounterValue start) const
{
    // Sec IV-D2: new groups start below Observed-System-Max + 1, so the
    // largest counter in the system can only ever advance by one per
    // writeback, preserving SGX's 2^56-writeback reboot bound.
    return std::min(start, tree_.observedMax());
}

ReadConsult
RmccEngine::onReadCounterUse(unsigned level, std::uint64_t idx)
{
    ReadConsult out;
    if (!cfg_.enabled || level >= levels_.size())
        return out;

    LevelState &st = *levels_[level];
    if (domain_resolver_)
        st.table->setActiveDomain(domain_resolver_(level, idx));
    ctr::CounterScheme &scheme = tree_.level(level);
    const addr::CounterValue v = scheme.read(idx);

    st.monitor->observeRead(v);
    out.hit = st.table->lookupRead(v);

    // High-counter trigger: insert a new group above the table (IV-C3),
    // at most once per epoch.
    if (!st.inserted_this_epoch && st.monitor->triggered()) {
        st.table->insertGroup(capStart(*st.monitor->takeSelection()));
        ++st.insertions;
        st.inserted_this_epoch = true;
        st.monitor->arm(st.table->maxInTable());
    }

    // Read-triggered relevel for values the table does not cover (IV-C1).
    if (out.hit == MemoHit::Miss && cfg_.read_update) {
        if (const auto upd = st.policy->onReadMiss(scheme, idx)) {
            out.releveled = true;
            out.overhead_accesses = upd->overhead_accesses;
            out.reencrypt_blocks = upd->reencrypt_blocks;
        }
    }
    return out;
}

UpdateOutcome
RmccEngine::onWriteCounter(unsigned level, std::uint64_t idx)
{
    ctr::CounterScheme &scheme = tree_.level(level);
    if (cfg_.enabled && level < levels_.size()) {
        if (domain_resolver_)
            levels_[level]->table->setActiveDomain(
                domain_resolver_(level, idx));
        return levels_[level]->policy->onWrite(scheme, idx);
    }

    // Baseline +1 (also used above the memoized levels under RMCC).
    const addr::CounterValue cur = scheme.read(idx);
    const ctr::WriteResult r = scheme.write(idx, cur + 1);
    UpdateOutcome out;
    out.value = r.new_value;
    out.overflow = r.overflow;
    out.reencrypt_blocks = r.reencrypt_blocks;
    return out;
}

void
RmccEngine::endEpoch(LevelState &st)
{
    st.table->endOfEpoch();
    st.monitor->arm(st.table->maxInTable());
    st.inserted_this_epoch = false;
}

bool
RmccEngine::quarantineMemoValue(unsigned level, addr::CounterValue v)
{
    if (!cfg_.enabled || level >= levels_.size())
        return false;
    LevelState &st = *levels_[level];
    const bool dropped = st.table->quarantineValue(v);
    st.monitor->arm(st.table->maxInTable());
    return dropped;
}

void
RmccEngine::setBudgetPools(double accesses)
{
    for (auto &st : levels_)
        st->budget->setPool(accesses);
}

double
RmccEngine::averageCoverage(unsigned level) const
{
    if (level >= levels_.size())
        return 0.0;
    const MemoTable &tbl = *levels_[level]->table;
    const ctr::CounterScheme &scheme = tree_.level(level);

    // Covered values form [start, start + group_size) intervals; merge
    // the (possibly overlapping) groups into sorted disjoint ranges and
    // let the scheme count the entities inside them.
    std::vector<ctr::ValueRange> ranges;
    const unsigned group_size = tbl.config().group_size;
    for (const auto start : tbl.groupStarts())
        ranges.emplace_back(start, start + group_size);
    if (ranges.empty())
        return 0.0;
    std::sort(ranges.begin(), ranges.end());
    std::size_t merged = 0;
    for (std::size_t i = 1; i < ranges.size(); ++i) {
        if (ranges[i].first <= ranges[merged].second)
            ranges[merged].second =
                std::max(ranges[merged].second, ranges[i].second);
        else
            ranges[++merged] = ranges[i];
    }
    ranges.resize(merged + 1);
    std::uint64_t distinct = 0;
    for (const auto &[lo, hi] : ranges)
        distinct += hi - lo;
    const std::uint64_t total = scheme.countInRanges(ranges);
    return static_cast<double>(total) / static_cast<double>(distinct);
}

} // namespace rmcc::core

#include "core/memo_table.hpp"

#include <algorithm>

namespace rmcc::core
{

MemoTable::MemoTable(const MemoConfig &cfg)
    : cfg_(cfg), groups_(cfg.groups), shadows_(cfg.shadow_groups)
{
    // Reserved once, so refreshLive never allocates.
    live_groups_.reserve(groups_.size());
    live_shadows_.reserve(shadows_.size());
}

void
MemoTable::refreshLive()
{
    const auto collect = [this](const std::vector<Group> &slots,
                                std::vector<std::uint32_t> &live) {
        live.clear();
        for (std::size_t g = 0; g < slots.size(); ++g)
            if (slots[g].valid && slots[g].domain == active_)
                live.push_back(static_cast<std::uint32_t>(g));
    };
    collect(groups_, live_groups_);
    collect(shadows_, live_shadows_);
}

int
MemoTable::findGroup(addr::CounterValue v) const
{
    for (const std::uint32_t g : live_groups_) {
        const Group &grp = groups_[g];
        if (v >= grp.start && v < grp.start + cfg_.group_size)
            return static_cast<int>(g);
    }
    return -1;
}

int
MemoTable::findShadow(addr::CounterValue v) const
{
    for (const std::uint32_t g : live_shadows_) {
        const Group &grp = shadows_[g];
        if (v >= grp.start && v < grp.start + cfg_.group_size)
            return static_cast<int>(g);
    }
    return -1;
}

// rmcc-lint: hot-path
MemoHit
MemoTable::lookupRead(addr::CounterValue v)
{
    // Quarantined values must never serve a read; the empty-set guard
    // keeps the default (fault-free) path at zero extra cost.
    if (!quarantine_.empty() && isQuarantined(v)) {
        ++misses_;
        return MemoHit::Miss;
    }
    const int g = findGroup(v);
    if (g >= 0) {
        ++groups_[static_cast<std::size_t>(g)].freq;
        ++group_hits_;
        return MemoHit::GroupHit;
    }
    // MRU evicted-group values: an exact-value hit refreshes recency and
    // keeps teaching the covering shadow group's frequency counter.
    const DomainValue dv{v, active_};
    const auto it = std::find(recent_.begin(), recent_.end(), dv);
    if (it != recent_.end()) {
        recent_.erase(it);
        recent_.push_front(dv);
        const int s = findShadow(v);
        if (s >= 0)
            ++shadows_[static_cast<std::size_t>(s)].freq;
        ++recent_hits_;
        return MemoHit::RecentHit;
    }
    // A value under a recently evicted group misses now but becomes
    // memoized for subsequent uses; the shadow group's frequency counter
    // keeps learning so the group can win re-insertion at epoch end.
    const int s = findShadow(v);
    if (s >= 0) {
        ++shadows_[static_cast<std::size_t>(s)].freq;
        if (cfg_.recent_values > 0) {
            recent_.push_front(dv);
            if (recent_.size() > cfg_.recent_values)
                recent_.pop_back();
        }
    }
    ++misses_;
    return MemoHit::Miss;
}

bool
MemoTable::contains(addr::CounterValue v) const
{
    return inGroups(v) ||
           std::find(recent_.begin(), recent_.end(),
                     DomainValue{v, active_}) != recent_.end();
}

bool
MemoTable::inGroups(addr::CounterValue v) const
{
    return findGroup(v) >= 0;
}

std::optional<addr::CounterValue>
MemoTable::nearestAbove(addr::CounterValue v) const
{
    std::optional<addr::CounterValue> best;
    for (const std::uint32_t g : live_groups_) {
        const Group &grp = groups_[g];
        // Smallest value in this group strictly above v.
        addr::CounterValue candidate;
        if (grp.start > v)
            candidate = grp.start;
        else if (v < grp.start + cfg_.group_size - 1)
            candidate = v + 1;
        else
            continue;
        if (!best || candidate < *best)
            best = candidate;
    }
    return best;
}

addr::CounterValue
MemoTable::maxInTable() const
{
    addr::CounterValue m = 0;
    for (const std::uint32_t g : live_groups_)
        m = std::max(m, groups_[g].start + cfg_.group_size - 1);
    return m;
}

unsigned
MemoTable::validGroupsOf(std::uint32_t d) const
{
    unsigned n = 0;
    for (const Group &grp : groups_)
        n += (grp.valid && grp.domain == d) ? 1 : 0;
    return n;
}

unsigned
MemoTable::validGroups() const
{
    unsigned n = 0;
    for (const Group &grp : groups_)
        n += grp.valid ? 1 : 0;
    return n;
}

void
MemoTable::insertGroup(addr::CounterValue start)
{
    // A domain at its quota evicts its own LFU group: the hot tenant
    // churns its own memoized range instead of taking over the table.
    const bool quota_bound =
        cfg_.domains > 1 && cfg_.quota_groups > 0 &&
        validGroupsOf(active_) >= cfg_.quota_groups;

    // Find the LFU victim among current groups (invalid slots first).
    std::size_t victim = 0;
    std::uint64_t best = ~0ULL;
    bool found_invalid = false;
    bool found_victim = false;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (quota_bound) {
            if (groups_[g].valid && groups_[g].domain == active_ &&
                groups_[g].freq < best) {
                best = groups_[g].freq;
                victim = g;
                found_victim = true;
            }
            continue;
        }
        if (!groups_[g].valid) {
            victim = g;
            found_invalid = true;
            found_victim = true;
            break;
        }
        if (groups_[g].freq < best) {
            best = groups_[g].freq;
            victim = g;
            found_victim = true;
        }
    }
    if (!found_victim)
        return; // quota of zero own groups cannot happen; defensive
    if (!found_invalid && groups_[victim].valid) {
        // Push the evicted group onto the shadow list (LRU shadow drops).
        std::rotate(shadows_.rbegin(), shadows_.rbegin() + 1,
                    shadows_.rend());
        shadows_[0] = groups_[victim];
    }
    groups_[victim] = {start, 0, true, active_};
    protected_start_ = DomainValue{start, active_};
    refreshLive();
}

void
MemoTable::endOfEpoch()
{
    // Pool current + shadow groups, keep the protected insertion, then
    // fill with the hottest remainder; leftovers become the new shadows.
    std::vector<Group> pool;
    pool.reserve(groups_.size() + shadows_.size());
    for (const Group &g : groups_)
        if (g.valid)
            pool.push_back(g);
    for (const Group &g : shadows_)
        if (g.valid)
            pool.push_back(g);

    std::stable_sort(pool.begin(), pool.end(),
                     [](const Group &a, const Group &b) {
                         return a.freq > b.freq;
                     });

    // Two groups are "the same" only within a domain: tenants may
    // legitimately memoize the same counter range under different keys.
    const auto same = [](const Group &a, const Group &b) {
        return a.start == b.start && a.domain == b.domain;
    };

    std::vector<Group> selected;
    selected.reserve(cfg_.groups);
    if (protected_start_) {
        const auto it = std::find_if(
            pool.begin(), pool.end(), [&](const Group &g) {
                return g.start == protected_start_->v &&
                       g.domain == protected_start_->domain;
            });
        if (it != pool.end()) {
            selected.push_back(*it);
            pool.erase(it);
        }
    }
    for (const Group &g : pool) {
        if (selected.size() >= cfg_.groups)
            break;
        // Skip duplicates (a group can appear in both lists after
        // re-insertion of an evicted start value).
        const bool dup = std::any_of(
            selected.begin(), selected.end(),
            [&](const Group &s) { return same(s, g); });
        if (!dup)
            selected.push_back(g);
    }

    // Whatever did not make the cut becomes the new shadow set (hottest
    // first, capped at shadow capacity).
    std::vector<Group> leftover;
    for (const Group &g : pool) {
        const bool kept = std::any_of(
            selected.begin(), selected.end(),
            [&](const Group &s) { return same(s, g); });
        if (!kept)
            leftover.push_back(g);
    }

    groups_.assign(cfg_.groups, Group());
    std::copy(selected.begin(), selected.end(), groups_.begin());
    shadows_.assign(cfg_.shadow_groups, Group());
    std::copy(leftover.begin(),
              leftover.begin() +
                  std::min<std::size_t>(leftover.size(),
                                        cfg_.shadow_groups),
              shadows_.begin());

    // Age frequencies so LFU reflects recent epochs, not ancient history.
    for (Group &g : groups_)
        g.freq /= 2;
    for (Group &g : shadows_)
        g.freq /= 2;
    protected_start_.reset();
    // Reselection re-derives every memoized pad from scratch, so any
    // quarantined values are honest again from here on.
    quarantine_.clear();
    refreshLive();
}

bool
MemoTable::quarantineValue(addr::CounterValue v)
{
    bool dropped = false;
    const int g = findGroup(v);
    if (g >= 0) {
        Group &grp = groups_[static_cast<std::size_t>(g)];
        if (protected_start_ && protected_start_->v == grp.start &&
            protected_start_->domain == grp.domain)
            protected_start_.reset();
        grp = Group(); // invalidate; no shadow push for a poisoned group
        refreshLive();
        dropped = true;
    }
    const DomainValue dv{v, active_};
    const auto it = std::find(recent_.begin(), recent_.end(), dv);
    if (it != recent_.end()) {
        recent_.erase(it);
        dropped = true;
    }
    if (!isQuarantined(v))
        quarantine_.push_back(dv);
    return dropped;
}

bool
MemoTable::isQuarantined(addr::CounterValue v) const
{
    return std::find(quarantine_.begin(), quarantine_.end(),
                     DomainValue{v, active_}) != quarantine_.end();
}

std::vector<addr::CounterValue>
MemoTable::groupStarts() const
{
    std::vector<addr::CounterValue> out;
    for (const Group &g : groups_)
        if (g.valid)
            out.push_back(g.start);
    return out;
}

std::vector<addr::CounterValue>
MemoTable::memoizedValues() const
{
    std::vector<addr::CounterValue> out;
    for (const Group &g : groups_)
        if (g.valid)
            for (unsigned i = 0; i < cfg_.group_size; ++i)
                out.push_back(g.start + i);
    for (const DomainValue &r : recent_)
        out.push_back(r.v);
    return out;
}

} // namespace rmcc::core

/**
 * @file
 * Memoization-table tests: group lookup, LFU insertion/eviction, shadow
 * groups, MRU evicted values, nearest-above queries, and end-of-epoch
 * reselection (Sec IV-C3/C4), and a differential test against a
 * linear-scan model of the table.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "core/memo_table.hpp"
#include "util/rng.hpp"

using namespace rmcc::core;
using rmcc::addr::CounterValue;

TEST(MemoTable, EmptyTableMissesEverything)
{
    MemoTable t;
    EXPECT_EQ(t.lookupRead(5), MemoHit::Miss);
    EXPECT_FALSE(t.contains(5));
    EXPECT_FALSE(t.nearestAbove(0).has_value());
    EXPECT_EQ(t.maxInTable(), 0u);
    EXPECT_EQ(t.validGroups(), 0u);
}

TEST(MemoTable, GroupCoversConsecutiveValues)
{
    MemoTable t;
    t.insertGroup(100);
    for (rmcc::addr::CounterValue v = 100; v < 108; ++v)
        EXPECT_EQ(t.lookupRead(v), MemoHit::GroupHit) << v;
    EXPECT_EQ(t.lookupRead(99), MemoHit::Miss);
    EXPECT_EQ(t.lookupRead(108), MemoHit::Miss);
    EXPECT_EQ(t.groupHits(), 8u);
    EXPECT_EQ(t.misses(), 2u);
}

TEST(MemoTable, NearestAboveWithinAndAcrossGroups)
{
    MemoTable t;
    t.insertGroup(100);
    t.insertGroup(200);
    EXPECT_EQ(t.nearestAbove(50).value(), 100u);
    EXPECT_EQ(t.nearestAbove(100).value(), 101u);
    EXPECT_EQ(t.nearestAbove(106).value(), 107u);
    EXPECT_EQ(t.nearestAbove(107).value(), 200u); // group end -> next
    EXPECT_EQ(t.nearestAbove(206).value(), 207u);
    EXPECT_FALSE(t.nearestAbove(207).has_value());
    EXPECT_EQ(t.maxInTable(), 207u);
}

TEST(MemoTable, ConfigEntriesMatchPaper)
{
    const MemoConfig cfg;
    EXPECT_EQ(cfg.entries(), 128u);
    EXPECT_EQ(cfg.groups, 16u);
    EXPECT_EQ(cfg.group_size, 8u);
}

TEST(MemoTable, LfuInsertionEvictsColdestGroup)
{
    MemoConfig cfg;
    cfg.groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200);
    t.lookupRead(100); // heat group 100
    t.lookupRead(101);
    t.lookupRead(200); // group 200 colder
    t.insertGroup(300); // evicts 200 (LFU); 100 stays
    EXPECT_TRUE(t.inGroups(100));
    EXPECT_FALSE(t.inGroups(200));
    EXPECT_TRUE(t.inGroups(300));
}

TEST(MemoTable, EvictedGroupValuesBecomeRecentOnUse)
{
    MemoConfig cfg;
    cfg.groups = 1;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200); // 100 -> shadow
    // First use of an evicted-group value misses but gets memoized.
    EXPECT_EQ(t.lookupRead(103), MemoHit::Miss);
    EXPECT_EQ(t.lookupRead(103), MemoHit::RecentHit);
    EXPECT_TRUE(t.contains(103));
}

TEST(MemoTable, RecentListIsMruBounded)
{
    MemoConfig cfg;
    cfg.groups = 1;
    cfg.recent_values = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200); // 100..107 now shadow
    t.lookupRead(101);  // -> recent
    t.lookupRead(102);  // -> recent (full)
    t.lookupRead(103);  // -> pushes out 101
    EXPECT_EQ(t.lookupRead(102), MemoHit::RecentHit);
    EXPECT_EQ(t.lookupRead(103), MemoHit::RecentHit);
    EXPECT_EQ(t.lookupRead(101), MemoHit::Miss);
}

TEST(MemoTable, UpdatePolicyIgnoresRecentValues)
{
    // nearestAbove only targets groups: the MRU evicted values change
    // with every access, so the update policy must not chase them.
    MemoConfig cfg;
    cfg.groups = 1;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(300);
    t.lookupRead(105); // 105 now memoized as recent value
    EXPECT_TRUE(t.contains(105));
    EXPECT_EQ(t.nearestAbove(104).value(), 300u);
}

TEST(MemoTable, EndOfEpochKeepsHottestOf32)
{
    MemoConfig cfg;
    cfg.groups = 2;
    cfg.shadow_groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200);
    t.insertGroup(300); // one of {100,200} moves to shadow (LFU: 100)
    // Heat the shadowed group heavily: shadow freq counters learn.
    for (int i = 0; i < 50; ++i)
        t.lookupRead(100);
    for (int i = 0; i < 5; ++i)
        t.lookupRead(200);
    t.endOfEpoch();
    // The shadow group 100 out-scored a current group and is re-memoized.
    EXPECT_TRUE(t.inGroups(100));
}

TEST(MemoTable, EndOfEpochProtectsNewInsertion)
{
    MemoConfig cfg;
    cfg.groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200);
    for (int i = 0; i < 50; ++i) {
        t.lookupRead(100);
        t.lookupRead(200);
    }
    t.insertGroup(900); // brand new, zero frequency, protected
    t.endOfEpoch();
    EXPECT_TRUE(t.inGroups(900));
}

TEST(MemoTable, FrequencyAgingHalvesAtEpoch)
{
    MemoConfig cfg;
    cfg.groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    for (int i = 0; i < 100; ++i)
        t.lookupRead(100);
    t.endOfEpoch();
    t.insertGroup(200);
    for (int i = 0; i < 60; ++i)
        t.lookupRead(200);
    t.endOfEpoch();
    // 100's aged frequency (50) < 200's (60): both kept (2 slots), but a
    // third hot insertion must now displace 100 first.
    t.insertGroup(300);
    EXPECT_TRUE(t.inGroups(200));
    EXPECT_FALSE(t.inGroups(100));
}

/** Parameterized group-size sweep (Fig 21/22 ablation machinery). */
class MemoGroupSize : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MemoGroupSize, EntriesConstantCoverageVaries)
{
    MemoConfig cfg;
    cfg.group_size = GetParam();
    cfg.groups = 128 / GetParam();
    EXPECT_EQ(cfg.entries(), 128u);
    MemoTable t(cfg);
    t.insertGroup(1000);
    for (unsigned k = 0; k < GetParam(); ++k)
        EXPECT_EQ(t.lookupRead(1000 + k), MemoHit::GroupHit);
    EXPECT_EQ(t.lookupRead(1000 + GetParam()), MemoHit::Miss);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MemoGroupSize,
                         ::testing::Values(4u, 8u, 16u));

namespace
{

/**
 * The table's rules with every query a scan over all slots, checking
 * validity and domain per slot: what MemoTable computed before it kept
 * lists of live slots.  Slot order, LFU victim choice, shadow rotation
 * and epoch reselection follow the same rules, so every answer, slot
 * and frequency must agree.
 */
class ScanMemo
{
  public:
    explicit ScanMemo(const MemoConfig &cfg)
        : cfg_(cfg), groups_(cfg.groups), shadows_(cfg.shadow_groups)
    {
    }

    void setActiveDomain(std::uint32_t d) { active_ = d; }

    MemoHit lookupRead(CounterValue v)
    {
        if (isQuarantined(v)) {
            ++misses_;
            return MemoHit::Miss;
        }
        if (const int g = find(groups_, v); g >= 0) {
            ++groups_[static_cast<std::size_t>(g)].freq;
            ++group_hits_;
            return MemoHit::GroupHit;
        }
        const Value dv{v, active_};
        const int s = find(shadows_, v);
        const auto it = std::find(recent_.begin(), recent_.end(), dv);
        if (s >= 0)
            ++shadows_[static_cast<std::size_t>(s)].freq;
        if (it != recent_.end()) {
            recent_.erase(it);
            recent_.push_front(dv);
            ++recent_hits_;
            return MemoHit::RecentHit;
        }
        if (s >= 0 && cfg_.recent_values > 0) {
            recent_.push_front(dv);
            if (recent_.size() > cfg_.recent_values)
                recent_.pop_back();
        }
        ++misses_;
        return MemoHit::Miss;
    }

    bool inGroups(CounterValue v) const { return find(groups_, v) >= 0; }

    bool contains(CounterValue v) const
    {
        return inGroups(v) || std::find(recent_.begin(), recent_.end(),
                                        Value{v, active_}) != recent_.end();
    }

    std::optional<CounterValue> nearestAbove(CounterValue v) const
    {
        std::optional<CounterValue> best;
        for (const Group &g : groups_) {
            if (!live(g))
                continue;
            const CounterValue last = g.start + cfg_.group_size - 1;
            const CounterValue c = g.start > v ? g.start : v + 1;
            if (c <= last && (!best || c < *best))
                best = c;
        }
        return best;
    }

    CounterValue maxInTable() const
    {
        CounterValue m = 0;
        for (const Group &g : groups_)
            if (live(g))
                m = std::max(m, g.start + cfg_.group_size - 1);
        return m;
    }

    void insertGroup(CounterValue start)
    {
        unsigned own = 0;
        for (const Group &g : groups_)
            own += g.valid && g.domain == active_;
        const bool quota = cfg_.domains > 1 && cfg_.quota_groups > 0 &&
                           own >= cfg_.quota_groups;
        // Quota: the active domain's LFU group.  Otherwise the lowest
        // invalid slot, else the LFU group.  Ties go to the lowest slot.
        std::optional<std::size_t> victim;
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            const Group &grp = groups_[g];
            if (quota && !live(grp))
                continue;
            if (!quota && !grp.valid) {
                victim = g;
                break;
            }
            if (!victim || grp.freq < groups_[*victim].freq)
                victim = g;
        }
        if (!victim)
            return;
        Group &slot = groups_[*victim];
        if (slot.valid) {
            shadows_.insert(shadows_.begin(), slot);
            shadows_.pop_back();
        }
        slot = {start, 0, true, active_};
        protected_ = Value{start, active_};
    }

    void endOfEpoch()
    {
        std::vector<Group> pool;
        for (const auto *list : {&groups_, &shadows_})
            for (const Group &g : *list)
                if (g.valid)
                    pool.push_back(g);
        std::stable_sort(pool.begin(), pool.end(),
                         [](const Group &a, const Group &b) {
                             return a.freq > b.freq;
                         });
        const auto in = [](const std::vector<Group> &list, const Group &g) {
            return std::any_of(list.begin(), list.end(),
                               [&](const Group &s) {
                                   return s.start == g.start &&
                                          s.domain == g.domain;
                               });
        };
        std::vector<Group> kept;
        if (protected_) {
            const Group key{protected_->v, 0, true, protected_->domain};
            for (auto it = pool.begin(); it != pool.end(); ++it) {
                if (in({key}, *it)) {
                    kept.push_back(*it);
                    pool.erase(it);
                    break;
                }
            }
        }
        for (const Group &g : pool)
            if (kept.size() < cfg_.groups && !in(kept, g))
                kept.push_back(g);
        std::vector<Group> rest;
        for (const Group &g : pool)
            if (!in(kept, g))
                rest.push_back(g);
        groups_.assign(cfg_.groups, Group());
        shadows_.assign(cfg_.shadow_groups, Group());
        std::copy(kept.begin(), kept.end(), groups_.begin());
        for (std::size_t i = 0; i < rest.size() && i < shadows_.size(); ++i)
            shadows_[i] = rest[i];
        for (auto *list : {&groups_, &shadows_})
            for (Group &g : *list)
                g.freq /= 2;
        protected_.reset();
        quarantine_.clear();
    }

    bool quarantineValue(CounterValue v)
    {
        bool dropped = false;
        if (const int g = find(groups_, v); g >= 0) {
            Group &grp = groups_[static_cast<std::size_t>(g)];
            if (protected_ && protected_->v == grp.start &&
                protected_->domain == grp.domain)
                protected_.reset();
            grp = Group();
            dropped = true;
        }
        const Value dv{v, active_};
        if (const auto it = std::find(recent_.begin(), recent_.end(), dv);
            it != recent_.end()) {
            recent_.erase(it);
            dropped = true;
        }
        if (!isQuarantined(v))
            quarantine_.push_back(dv);
        return dropped;
    }

    std::vector<CounterValue> groupStarts() const
    {
        std::vector<CounterValue> out;
        for (const Group &g : groups_)
            if (g.valid)
                out.push_back(g.start);
        return out;
    }

    std::vector<CounterValue> memoizedValues() const
    {
        std::vector<CounterValue> out;
        for (const Group &g : groups_)
            if (g.valid)
                for (unsigned i = 0; i < cfg_.group_size; ++i)
                    out.push_back(g.start + i);
        for (const Value &r : recent_)
            out.push_back(r.v);
        return out;
    }

    std::uint64_t group_hits_ = 0, recent_hits_ = 0, misses_ = 0;

  private:
    struct Group
    {
        CounterValue start = 0;
        std::uint64_t freq = 0;
        bool valid = false;
        std::uint32_t domain = 0;
    };
    struct Value
    {
        CounterValue v;
        std::uint32_t domain;
        bool operator==(const Value &) const = default;
    };

    bool live(const Group &g) const { return g.valid && g.domain == active_; }

    int find(const std::vector<Group> &list, CounterValue v) const
    {
        for (std::size_t g = 0; g < list.size(); ++g)
            if (live(list[g]) && v >= list[g].start &&
                v < list[g].start + cfg_.group_size)
                return static_cast<int>(g);
        return -1;
    }

    bool isQuarantined(CounterValue v) const
    {
        return std::find(quarantine_.begin(), quarantine_.end(),
                         Value{v, active_}) != quarantine_.end();
    }

    MemoConfig cfg_;
    std::uint32_t active_ = 0;
    std::vector<Group> groups_, shadows_;
    std::deque<Value> recent_;
    std::vector<Value> quarantine_;
    std::optional<Value> protected_;
};

} // namespace

TEST(MemoTable, LiveListsMatchFullScanOracle)
{
    // Random lookups, insertions, epochs, quarantines and domain switches
    // over a small value range (so groups overlap, hit, shadow and cover
    // 0, the start of an emptied slot), with every answer compared after
    // every operation.  A mutator that skipped its live-list refresh
    // leaves a dropped, moved or foreign-domain slot visible or hides a
    // new one, which some query below would report.
    rmcc::util::Rng rng(25);
    for (const std::uint32_t domains : {1u, 3u}) {
        for (const unsigned quota : {0u, 2u}) {
            for (const unsigned groups : {1u, 2u, 16u, 32u, 128u}) {
                MemoConfig cfg;
                cfg.groups = groups;
                cfg.group_size = groups == 128 ? 1 : 8;
                cfg.domains = domains;
                cfg.quota_groups = quota;
                MemoTable t(cfg);
                ScanMemo o(cfg);
                const CounterValue range = 24 + 6 * std::min(groups, 32u);
                for (int op = 0; op < 6000; ++op) {
                    const CounterValue v = rng.nextBelow(range);
                    const std::uint64_t kind = rng.nextBelow(100);
                    if (kind < 60) {
                        ASSERT_EQ(t.lookupRead(v), o.lookupRead(v));
                    } else if (kind < 80) {
                        t.insertGroup(v);
                        o.insertGroup(v);
                    } else if (kind < 83) {
                        t.endOfEpoch();
                        o.endOfEpoch();
                    } else if (kind < 88) {
                        ASSERT_EQ(t.quarantineValue(v),
                                  o.quarantineValue(v));
                    } else if (domains > 1) {
                        const auto d = static_cast<std::uint32_t>(
                            rng.nextBelow(domains));
                        t.setActiveDomain(d);
                        o.setActiveDomain(d);
                    }
                    const auto where = [&] {
                        return ::testing::Message()
                               << "domains " << domains << " quota "
                               << quota << " groups " << groups << " op "
                               << op;
                    };
                    ASSERT_EQ(t.groupStarts(), o.groupStarts()) << where();
                    ASSERT_EQ(t.memoizedValues(), o.memoizedValues())
                        << where();
                    ASSERT_EQ(t.maxInTable(), o.maxInTable()) << where();
                    for (const CounterValue q :
                         {v, CounterValue{0}, rng.nextBelow(range)}) {
                        ASSERT_EQ(t.nearestAbove(q), o.nearestAbove(q))
                            << where() << " q " << q;
                        ASSERT_EQ(t.contains(q), o.contains(q))
                            << where() << " q " << q;
                        ASSERT_EQ(t.inGroups(q), o.inGroups(q))
                            << where() << " q " << q;
                    }
                    ASSERT_EQ(t.groupHits(), o.group_hits_) << where();
                    ASSERT_EQ(t.recentHits(), o.recent_hits_) << where();
                    ASSERT_EQ(t.misses(), o.misses_) << where();
                }
            }
        }
    }
}

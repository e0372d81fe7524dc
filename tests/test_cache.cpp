/**
 * @file
 * Cache tests: set-associative behaviour (hits, LRU order, writebacks),
 * the three-level hierarchy's victim cascade, and the TLB.
 */
#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/set_assoc.hpp"
#include "cache/tlb.hpp"
#include "util/rng.hpp"

using namespace rmcc::cache;
using rmcc::addr::Addr;

TEST(SetAssoc, HitAfterMiss)
{
    SetAssocCache c("t", 4096, 4);
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13f, false).hit); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssoc, LruEvictionOrder)
{
    // 2 sets x 2 ways, 64 B lines: lines 0,2,4 map to set 0.
    SetAssocCache c("t", 256, 2);
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    c.access(0 * 64, false); // refresh 0: LRU victim is 2
    const AccessResult r = c.access(4 * 64, false);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_addr, 2u * 64);
    EXPECT_TRUE(c.probe(0 * 64));
    EXPECT_FALSE(c.probe(2 * 64));
}

TEST(SetAssoc, DirtyEvictionIsWriteback)
{
    SetAssocCache c("t", 256, 2);
    c.access(0 * 64, true);
    c.access(2 * 64, false);
    const AccessResult r = c.access(4 * 64, false); // evicts dirty 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssoc, CleanEvictionIsNotWriteback)
{
    SetAssocCache c("t", 256, 2);
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    EXPECT_FALSE(c.access(4 * 64, false).writeback);
}

TEST(SetAssoc, FillAndInvalidate)
{
    SetAssocCache c("t", 4096, 4);
    c.fill(0x200, true);
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_TRUE(c.invalidate(0x200)); // was dirty
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_FALSE(c.invalidate(0x200));
}

TEST(SetAssoc, TouchDirtyMarksResidentLine)
{
    SetAssocCache c("t", 256, 2);
    c.access(0, false);
    c.touchDirty(0);
    c.access(2 * 64, false);
    EXPECT_TRUE(c.access(4 * 64, false).writeback);
}

TEST(SetAssoc, FifoDiffersFromLru)
{
    SetAssocCache lru("l", 256, 2, 64, ReplPolicy::LRU);
    SetAssocCache fifo("f", 256, 2, 64, ReplPolicy::FIFO);
    for (SetAssocCache *c : {&lru, &fifo}) {
        c->access(0 * 64, false);
        c->access(2 * 64, false);
        c->access(0 * 64, false); // refresh 0 (no-op under FIFO)
    }
    EXPECT_EQ(lru.access(4 * 64, false).victim_addr, 2u * 64);
    EXPECT_EQ(fifo.access(4 * 64, false).victim_addr, 0u);
}

/** Property sweep over cache geometries: conservation of accounting. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{
};

TEST_P(CacheGeometry, AccountingConsistent)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache c("t", size, assoc);
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.access((x % (size * 8)) & ~63ULL, (x & 1) != 0);
    }
    EXPECT_EQ(c.hits() + c.misses(), 20000u);
    EXPECT_LE(c.writebacks(), c.misses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair<std::uint64_t, unsigned>{4096, 1},
                      std::pair<std::uint64_t, unsigned>{8192, 4},
                      std::pair<std::uint64_t, unsigned>{32768, 8},
                      std::pair<std::uint64_t, unsigned>{131072, 32}));

TEST(SetAssoc, VictimIsLowestInvalidWayThenLru)
{
    // One set per cache, so line i is address i * 64 and every access
    // competes for the same ways.
    for (const unsigned assoc : {4u, 8u, 16u}) {
        SetAssocCache c("t", assoc * 64ULL, assoc);
        const auto line = [](unsigned i) { return Addr{i} * 64; };
        for (unsigned i = 0; i < assoc; ++i) {
            EXPECT_FALSE(c.access(line(i), false).evicted);
            EXPECT_EQ(c.wayOf(line(i)), static_cast<int>(i));
        }

        // Invalidate the higher way first: the choice must not depend on
        // invalidation order.  Refills take the lowest invalid way.
        const unsigned lo = 1, hi = assoc - 2;
        c.invalidate(line(hi));
        c.invalidate(line(lo));
        EXPECT_FALSE(c.access(line(assoc), false).evicted);
        EXPECT_EQ(c.wayOf(line(assoc)), static_cast<int>(lo))
            << "assoc=" << assoc;
        EXPECT_FALSE(c.access(line(assoc + 1), false).evicted);
        EXPECT_EQ(c.wayOf(line(assoc + 1)), static_cast<int>(hi))
            << "assoc=" << assoc;

        // Refresh line 0, then every further miss evicts the exact LRU
        // line, and the newcomer takes the victim's way.
        EXPECT_TRUE(c.access(line(0), false).hit);
        std::vector<unsigned> lru_order;
        for (unsigned i = 1; i < assoc; ++i)
            if (i != lo && i != hi)
                lru_order.push_back(i);
        lru_order.push_back(assoc);
        lru_order.push_back(assoc + 1);
        lru_order.push_back(0);
        ASSERT_EQ(lru_order.size(), assoc);
        for (unsigned k = 0; k < assoc; ++k) {
            const unsigned victim = lru_order[k];
            const int way = c.wayOf(line(victim));
            const AccessResult r = c.access(line(100 + k), false);
            ASSERT_TRUE(r.evicted) << "assoc=" << assoc << " k=" << k;
            EXPECT_EQ(r.victim_addr, line(victim))
                << "assoc=" << assoc << " k=" << k;
            EXPECT_EQ(c.wayOf(line(100 + k)), way);
            EXPECT_EQ(c.wayOf(line(victim)), -1);
        }
    }
}

namespace
{

/**
 * The replacement rule stated with stamps: a 64-bit stamp per line from
 * a clock that ticks on every access and fill, a victim chosen as the
 * lowest invalid way or else the smallest stamp.  LRU re-stamps a line
 * on every hit; FIFO stamps it only when it is filled.
 */
class StampOracle
{
  public:
    StampOracle(std::uint64_t sets, unsigned assoc, ReplPolicy policy)
        : sets_(sets), assoc_(assoc), policy_(policy),
          lines_(sets * assoc)
    {
    }

    AccessResult access(Addr a, bool dirty, bool is_fill)
    {
        Line *set = &lines_[(a / 64 % sets_) * assoc_];
        const Addr tag = a / 64;
        ++clock_;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                if (policy_ == ReplPolicy::LRU)
                    set[w].stamp = clock_;
                set[w].dirty |= dirty;
                return {true, false, false, 0};
            }
        }
        if (!is_fill)
            ++clock_; // access() missed: one more tick for its fill
        unsigned victim = assoc_;
        for (unsigned w = 0; w < assoc_ && victim == assoc_; ++w)
            if (!set[w].valid)
                victim = w;
        if (victim == assoc_) {
            victim = 0;
            for (unsigned w = 1; w < assoc_; ++w)
                if (set[w].stamp < set[victim].stamp)
                    victim = w;
        }
        Line &l = set[victim];
        AccessResult r;
        if (l.valid)
            r = {false, true, l.dirty, l.tag * 64};
        l = {tag, clock_, true, dirty};
        return r;
    }

    bool invalidate(Addr a)
    {
        Line *set = &lines_[(a / 64 % sets_) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == a / 64) {
                set[w].valid = false;
                return set[w].dirty;
            }
        }
        return false;
    }

    int wayOf(Addr a) const
    {
        const Line *set = &lines_[(a / 64 % sets_) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w)
            if (set[w].valid && set[w].tag == a / 64)
                return static_cast<int>(w);
        return -1;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t stamp = 0;
        bool valid = false, dirty = false;
    };
    std::uint64_t sets_;
    unsigned assoc_;
    ReplPolicy policy_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

/**
 * Random accesses, fills and invalidations drawn from `lines` (line
 * numbers), with every outcome, victim and way checked against the
 * stamp-minimum rule; `invalidate_pct` percent of operations invalidate.
 * With a non-empty window the cache under test looks tags up in its
 * index, and a scanning cache of the same geometry runs the same stream
 * in lockstep: every result, way, tally and occupancy count must agree.
 */
void
matchStampOracle(const std::vector<Addr> &lines, std::uint64_t sets,
                 unsigned assoc, ReplPolicy policy, rmcc::util::Rng &rng,
                 unsigned invalidate_pct, TagWindow window = {})
{
    const std::uint64_t bytes = sets * assoc * 64;
    SetAssocCache c("t", bytes, assoc, 64, policy, window);
    SetAssocCache scan("s", bytes, assoc, 64, policy);
    const bool twin = window.n != 0;
    const auto same = [](const AccessResult &x, const AccessResult &y) {
        return x.hit == y.hit && x.evicted == y.evicted &&
               x.writeback == y.writeback && x.victim_addr == y.victim_addr;
    };
    StampOracle o(sets, assoc, policy);
    for (int op = 0; op < 40000; ++op) {
        const Addr a = lines[rng.nextBelow(lines.size())] * 64 +
                       rng.nextBelow(64);
        const std::uint64_t kind = rng.nextBelow(100);
        if (kind < invalidate_pct) {
            const bool dirty = c.invalidate(a);
            ASSERT_EQ(dirty, o.invalidate(a)) << "op " << op;
            if (twin) {
                ASSERT_EQ(dirty, scan.invalidate(a)) << "op " << op;
            }
        } else if (kind < 70) {
            const bool write = rng.nextBool(0.3);
            const AccessResult got = c.access(a, write);
            const AccessResult want = o.access(a, write, false);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.evicted, want.evicted) << "op " << op;
            ASSERT_EQ(got.writeback, want.writeback) << "op " << op;
            ASSERT_EQ(got.victim_addr, want.victim_addr) << "op " << op;
            if (twin) {
                ASSERT_TRUE(same(got, scan.access(a, write))) << "op " << op;
            }
        } else {
            const bool dirty = rng.nextBool(0.3);
            const AccessResult got = c.fill(a, dirty);
            const AccessResult want = o.access(a, dirty, true);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.victim_addr, want.victim_addr) << "op " << op;
            ASSERT_EQ(got.writeback, want.writeback) << "op " << op;
            if (twin) {
                ASSERT_TRUE(same(got, scan.fill(a, dirty))) << "op " << op;
            }
        }
        ASSERT_EQ(c.wayOf(a), o.wayOf(a))
            << "assoc " << assoc << " op " << op;
        if (twin && op % 64 == 0) {
            const Addr lo = lines[rng.nextBelow(lines.size())] * 64;
            const Addr hi = lo + rng.nextBelow(lines.size() * 64);
            ASSERT_EQ(c.countValidIn(lo, hi), scan.countValidIn(lo, hi))
                << "op " << op;
        }
    }
    if (twin) {
        EXPECT_EQ(c.hits(), scan.hits());
        EXPECT_EQ(c.misses(), scan.misses());
        EXPECT_EQ(c.writebacks(), scan.writebacks());
        EXPECT_EQ(c.countValidIn(0, ~Addr{0}), scan.countValidIn(0, ~Addr{0}));
    }
}

} // namespace

TEST(SetAssoc, RecencyListMatchesStampOracle)
{
    // A pool of three lines per way, so sets fill, overflow and develop
    // holes.  Assoc 1, 2 and 12 scan a fingerprint row padded to 8 ways,
    // whose padding must neither match a tag nor be chosen as a victim.
    rmcc::util::Rng rng(32);
    for (const ReplPolicy policy : {ReplPolicy::LRU, ReplPolicy::FIFO}) {
        for (const unsigned assoc : {1u, 2u, 8u, 12u, 16u, 32u}) {
            const std::uint64_t sets = 4;
            std::vector<Addr> lines(3 * sets * assoc);
            for (std::size_t i = 0; i < lines.size(); ++i)
                lines[i] = i;
            matchStampOracle(lines, sets, assoc, policy, rng, 20);
        }
    }
}

TEST(SetAssoc, IndexedMatchesStampOracle)
{
    // The streams of RecencyListMatchesStampOracle, over line numbers
    // that start at 1000, through a cache whose window leaves a few
    // unused tags at both ends.
    rmcc::util::Rng rng(34);
    for (const ReplPolicy policy : {ReplPolicy::LRU, ReplPolicy::FIFO}) {
        for (const unsigned assoc : {1u, 2u, 8u, 12u, 16u, 32u}) {
            const std::uint64_t sets = 4;
            std::vector<Addr> lines(3 * sets * assoc);
            for (std::size_t i = 0; i < lines.size(); ++i)
                lines[i] = 1000 + i;
            matchStampOracle(lines, sets, assoc, policy, rng, 20,
                             {997, lines.size() + 8});
        }
    }
}

TEST(SetAssocDeathTest, AccessOutsideIndexedWindowIsFatal)
{
    // Lines 100..131 are in the window; the lines just outside it on
    // either side are refused, by every lookup that takes a tag.
    const auto cache = [] {
        return SetAssocCache("w", 4 * 8 * 64, 8, 64, ReplPolicy::LRU,
                             {100, 32});
    };
    SetAssocCache ok = cache();
    EXPECT_FALSE(ok.access(100 * 64, false).hit);
    EXPECT_FALSE(ok.access(131 * 64 + 63, false).hit);
    EXPECT_TRUE(ok.probe(131 * 64));
    EXPECT_EXIT(cache().access(132 * 64, false),
                ::testing::ExitedWithCode(1), "outside its tag window");
    EXPECT_EXIT(cache().fill(99 * 64 + 63, true),
                ::testing::ExitedWithCode(1), "outside its tag window");
    EXPECT_EXIT(cache().probe(0), ::testing::ExitedWithCode(1),
                "outside its tag window");
    EXPECT_EXIT(cache().invalidate(1000 * 64),
                ::testing::ExitedWithCode(1), "outside its tag window");
}

namespace
{

/** The first n line numbers of set `set` (of `sets`) whose tag has
 *  fingerprint fp. */
std::vector<Addr>
fingerprintTwins(std::uint64_t sets, std::uint64_t set, std::uint8_t fp,
                 std::size_t n)
{
    std::vector<Addr> out;
    for (Addr line = set; out.size() < n; line += sets)
        if (SetAssocCache::fingerprint(line) == fp)
            out.push_back(line);
    return out;
}

} // namespace

TEST(SetAssoc, FingerprintTwinsNeedTheFullTag)
{
    // Fill one set with lines that all share a fingerprint: every probe
    // of an absent twin passes the fingerprint filter on every way and
    // must still miss, and each resident twin must be found in its own
    // way, including after an invalidated way is refilled.
    for (const unsigned assoc : {8u, 16u, 32u}) {
        const std::uint64_t sets = 4;
        SetAssocCache c("t", sets * assoc * 64, assoc);
        const std::vector<Addr> twins = fingerprintTwins(sets, 1, 0x5a,
                                                         2 * assoc);
        for (unsigned i = 0; i < assoc; ++i)
            EXPECT_FALSE(c.access(twins[i] * 64, false).hit);
        for (unsigned i = 0; i < assoc; ++i) {
            EXPECT_EQ(c.wayOf(twins[i] * 64), static_cast<int>(i));
            EXPECT_FALSE(c.probe(twins[assoc + i] * 64))
                << "assoc " << assoc << " twin " << assoc + i;
        }
        const unsigned hole = assoc / 2 + 1;
        EXPECT_FALSE(c.invalidate(twins[hole] * 64));
        EXPECT_FALSE(c.probe(twins[hole] * 64));
        EXPECT_FALSE(c.access(twins[assoc] * 64, true).evicted);
        EXPECT_EQ(c.wayOf(twins[assoc] * 64), static_cast<int>(hole));
        EXPECT_EQ(c.wayOf(twins[hole] * 64), -1);
        for (unsigned i = 0; i < assoc; ++i) {
            if (i != hole) {
                EXPECT_TRUE(c.access(twins[i] * 64, false).hit);
            }
        }
    }
}

TEST(SetAssoc, FingerprintTwinsMatchStampOracle)
{
    // Each set's lines fall into two fingerprint classes, so most
    // lookups meet several candidates, and a third of the operations
    // invalidate, so ways are emptied and refilled all the time.
    rmcc::util::Rng rng(33);
    for (const ReplPolicy policy : {ReplPolicy::LRU, ReplPolicy::FIFO}) {
        for (const unsigned assoc : {1u, 8u, 12u, 16u, 32u}) {
            const std::uint64_t sets = 4;
            std::vector<Addr> lines;
            for (std::uint64_t set = 0; set < sets; ++set)
                for (const std::uint8_t fp : {0x01, 0xc3})
                    for (const Addr l : fingerprintTwins(sets, set, fp,
                                                         2 * assoc))
                        lines.push_back(l);
            matchStampOracle(lines, sets, assoc, policy, rng, 33);
        }
    }
}

TEST(Hierarchy, HitLevelsAndLatencies)
{
    Hierarchy h({1024, 2, 2.0}, {4096, 4, 4.0}, {16384, 8, 17.0});
    const HierarchyResult m = h.access(0, false);
    EXPECT_EQ(m.hit_level, 4u);
    EXPECT_TRUE(m.llc_miss);
    const HierarchyResult l1 = h.access(0, false);
    EXPECT_EQ(l1.hit_level, 1u);
    EXPECT_DOUBLE_EQ(l1.hit_latency_ns, 2.0);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    Hierarchy h({128, 1, 2.0}, {4096, 4, 4.0}, {16384, 8, 17.0});
    h.access(0, false);        // miss everywhere, fills all levels
    h.access(2 * 64, false);   // same L1 set (2 sets of 1 way): evicts 0
    h.access(4 * 64, false);
    const HierarchyResult r = h.access(0, false);
    EXPECT_EQ(r.hit_level, 2u);
    EXPECT_DOUBLE_EQ(r.hit_latency_ns, 6.0);
}

TEST(Hierarchy, DirtyDataEventuallyWritesBackToMemory)
{
    // Tiny hierarchy: writes must surface as memory writebacks once
    // capacity is exceeded everywhere.
    Hierarchy h({128, 1, 2.0}, {256, 1, 4.0}, {512, 1, 17.0});
    int wbs = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const HierarchyResult r = h.access(i * 64, true);
        wbs += r.memory_writeback.has_value();
    }
    EXPECT_GT(wbs, 0);
}

TEST(Hierarchy, SecondMemoryWritebackInOneAccessReplacesTheFirst)
{
    // L1: one line.  L2: one set of two ways.  LLC: two direct-mapped
    // sets, so blocks a=0 and c=2 share LLC set 0 and b=1 uses set 1.
    Hierarchy h({64, 1, 2.0}, {128, 2, 4.0}, {128, 1, 17.0});
    const Addr a = 0, b = 64, c = 128;
    EXPECT_FALSE(h.access(a, true).memory_writeback); // L1 a*, LLC a
    EXPECT_FALSE(h.access(c, true).memory_writeback); // L2 a* c, LLC c
    // L1 victim c* dirties L2's c; L2 evicts a* into the LLC, where it
    // displaces clean c.
    EXPECT_FALSE(h.access(b, false).memory_writeback);
    ASSERT_EQ(h.llc().writebacks(), 0u);

    // Reading a: L2 evicts c*, whose fill evicts a* from LLC set 0 (the
    // first memory writeback); the LLC miss on a then evicts c* (the
    // second).  The result holds only the later victim, c; a is lost.
    const HierarchyResult r = h.access(a, false);
    EXPECT_EQ(h.llc().writebacks(), 2u);
    EXPECT_TRUE(r.llc_miss);
    ASSERT_TRUE(r.memory_writeback.has_value());
    EXPECT_EQ(*r.memory_writeback, c);
}

TEST(Tlb, HitsAndMisses)
{
    Tlb tlb(16, 4, 4096);
    EXPECT_FALSE(tlb.access(0));
    EXPECT_TRUE(tlb.access(100));    // same page
    EXPECT_FALSE(tlb.access(4096)); // next page
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, HugePagesCoverMore)
{
    Tlb small(64, 4, 4096);
    Tlb huge(64, 4, 2 * 1024 * 1024);
    std::uint64_t small_misses = 0, huge_misses = 0;
    for (std::uint64_t a = 0; a < (16ULL << 20); a += 8192) {
        small_misses += !small.access(a);
        huge_misses += !huge.access(a);
    }
    EXPECT_GT(small_misses, 10 * huge_misses);
}

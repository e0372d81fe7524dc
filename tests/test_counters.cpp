/**
 * @file
 * Counter-scheme tests: monolithic/SC-64/Morphable semantics, overflow
 * and releveling, min-shift re-encoding, 512-bit packing round trips,
 * the integrity tree, cross-scheme invariants, the pinned randomInit
 * state, and countInRanges against a dense count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "counters/monolithic.hpp"
#include "counters/morphable.hpp"
#include "counters/sc64.hpp"
#include "counters/tree.hpp"

using namespace rmcc::ctr;
using rmcc::addr::CounterValue;

TEST(Monolithic, BasicIncrementsNeverOverflow)
{
    MonolithicScheme s(64);
    for (CounterValue v = 1; v <= 100; ++v) {
        const WriteResult r = s.write(7, v);
        EXPECT_FALSE(r.overflow);
        EXPECT_EQ(r.new_value, v);
    }
    EXPECT_EQ(s.read(7), 100u);
    EXPECT_EQ(s.overflows(), 0u);
}

TEST(Monolithic, CoverageIsEight)
{
    MonolithicScheme s(64);
    EXPECT_EQ(s.coverage(), 8u);
    EXPECT_EQ(s.blockOf(7), 0u);
    EXPECT_EQ(s.blockOf(8), 1u);
}

TEST(Sc64, EncodableWithinMinorRange)
{
    Sc64Scheme s(128);
    EXPECT_TRUE(s.encodable(0, 127));
    EXPECT_FALSE(s.encodable(0, 128));
}

TEST(Sc64, OverflowRelevelsWholeBlockToMax)
{
    Sc64Scheme s(128);
    s.write(0, 100);
    s.write(1, 50);
    const WriteResult r = s.write(2, 130); // exceeds 7-bit minor
    EXPECT_TRUE(r.overflow);
    EXPECT_EQ(r.new_value, 130u);
    EXPECT_EQ(r.reencrypt_blocks, 64u);
    // Every counter in the block releveled to the max.
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(s.read(i), 130u);
    // Counter 64 is in the next block: untouched.
    EXPECT_EQ(s.read(64), 0u);
    EXPECT_EQ(s.major(0), 130u);
    EXPECT_EQ(s.overflows(), 1u);
}

TEST(Sc64, PostRelevelWritesEncodeAgain)
{
    Sc64Scheme s(128);
    s.write(0, 200); // overflow -> relevel to 200
    const WriteResult r = s.write(1, 201);
    EXPECT_FALSE(r.overflow);
}

TEST(Morphable, CoverageIs128)
{
    MorphableScheme s(256);
    EXPECT_EQ(s.coverage(), 128u);
}

TEST(Morphable, FormatProgression)
{
    MorphableScheme s(128);
    EXPECT_EQ(s.format(0), MorphFormat::Uniform3);
    s.write(0, 5); // offset 5: still uniform
    EXPECT_EQ(s.format(0), MorphFormat::Uniform3);
    s.write(1, 100); // one big offset: exception slot
    EXPECT_EQ(s.format(0), MorphFormat::Uniform3X);
    s.write(2, 5000); // very large: still within 13-bit exceptions
    EXPECT_EQ(s.format(0), MorphFormat::Uniform3X);
    s.write(3, 40000); // 16-bit offsets: index-list format
    EXPECT_EQ(s.format(0), MorphFormat::Index16);
    EXPECT_EQ(s.overflows(), 0u);
}

TEST(Morphable, BitmapFormatForManyMediumOffsets)
{
    MorphableScheme s(128);
    for (std::uint64_t i = 0; i < 20; ++i)
        s.write(i, 40); // 20 non-zero offsets < 64
    EXPECT_EQ(s.format(0), MorphFormat::Bitmap6);
    EXPECT_EQ(s.overflows(), 0u);
}

TEST(Morphable, MinShiftReencodesWithoutOverflow)
{
    // All counters drift upward together: the major slides, no rebase.
    MorphableScheme s(128);
    for (CounterValue round = 1; round <= 40; ++round)
        for (std::uint64_t i = 0; i < 128; ++i)
            s.write(i, round);
    EXPECT_EQ(s.overflows(), 0u);
    EXPECT_EQ(s.read(0), 40u);
    EXPECT_GT(s.major(0), 0u); // major slid upward
    EXPECT_GT(s.morphs(), 0u);
}

TEST(Morphable, DivergentSpreadForcesRebase)
{
    MorphableScheme s(128);
    // >3 counters far above while many small non-zeros exist.
    for (std::uint64_t i = 0; i < 60; ++i)
        s.write(i, 1 + i % 7);
    std::uint64_t before = s.overflows();
    for (std::uint64_t i = 0; i < 5; ++i)
        s.write(i, 70000 + i);
    EXPECT_GT(s.overflows(), before);
    // The first divergent write rebased the block: every counter was
    // releveled to at least that write's value.
    for (std::uint64_t i = 0; i < 128; ++i)
        EXPECT_GE(s.read(i), 70000u);
    EXPECT_EQ(s.read(127), 70000u);
    EXPECT_EQ(s.read(4), 70004u); // later writes encode in place
}

TEST(Morphable, RelevelBlockSetsAllEqual)
{
    MorphableScheme s(128);
    s.write(0, 3);
    s.write(1, 7);
    const WriteResult r = s.relevelBlock(0, 500);
    EXPECT_EQ(r.reencrypt_blocks, 128u);
    for (std::uint64_t i = 0; i < 128; ++i)
        EXPECT_EQ(s.read(i), 500u);
    EXPECT_EQ(s.major(0), 500u);
    EXPECT_EQ(s.format(0), MorphFormat::Uniform3);
}

TEST(Morphable, CheaplyEncodableIsDenseRange)
{
    MorphableScheme s(128);
    s.relevelBlock(0, 100);
    EXPECT_TRUE(s.cheaplyEncodable(0, 105));
    EXPECT_FALSE(s.cheaplyEncodable(0, 109)); // span 9 >= 8
}

TEST(Morphable, PackUnpackRoundTripAllFormats)
{
    MorphableScheme s(128);
    auto roundtrip = [&]() {
        const auto bits = s.packBlock(0);
        const auto [major, offsets] = MorphableScheme::unpackBlock(bits);
        EXPECT_EQ(major, s.major(0));
        for (std::uint64_t i = 0; i < 128; ++i)
            EXPECT_EQ(major + offsets[i], s.read(i))
                << "mismatch at " << i << " fmt "
                << static_cast<int>(s.format(0));
    };
    roundtrip(); // Uniform3 (all zero)
    s.write(0, 5);
    roundtrip(); // Uniform3
    s.write(1, 100);
    roundtrip(); // Uniform3X
    s.write(2, 50);
    s.write(3, 40);
    s.write(4, 30);
    roundtrip(); // Bitmap6 territory
    s.write(5, 200);
    roundtrip(); // Bitmap8
    s.write(6, 30000);
    roundtrip(); // Index16 (if it still fits) or post-rebase Uniform3
}

TEST(Morphable, PayloadsFitIn64Bytes)
{
    for (const MorphFormatInfo &fmt : morphFormats())
        EXPECT_LE(fmt.payload_bits, 448u) << static_cast<int>(fmt.id);
}

TEST(SchemeFactory, KindsAndCoverage)
{
    EXPECT_EQ(schemeCoverage(SchemeKind::SgxMonolithic), 8u);
    EXPECT_EQ(schemeCoverage(SchemeKind::SC64), 64u);
    EXPECT_EQ(schemeCoverage(SchemeKind::Morphable), 128u);
    EXPECT_EQ(makeScheme(SchemeKind::SC64, 64)->name(), "SC-64");
}

/** Cross-scheme invariants under random monotone write streams. */
class SchemeInvariants : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(SchemeInvariants, CountersNeverDecreaseAndNeverRepeat)
{
    auto s = makeScheme(GetParam(), 512);
    rmcc::util::Rng rng(42);
    std::vector<CounterValue> last(512, 0);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t idx = rng.nextBelow(512);
        const CounterValue cur = s->read(idx);
        const WriteResult r = s->write(idx, cur + 1);
        // The value actually assigned never decreases and strictly
        // exceeds the previous value of this entity (no counter reuse:
        // the counter-mode security invariant).
        EXPECT_GT(r.new_value, last[idx]);
        for (std::uint64_t j = 0; j < 512; ++j) {
            EXPECT_GE(s->read(j), last[j]) << "decreased at " << j;
            last[j] = s->read(j);
        }
        if (i == 100)
            break; // full scan is quadratic; spot-check the prefix
    }
    // Longer run with lighter checking.
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t idx = rng.nextBelow(512);
        const CounterValue cur = s->read(idx);
        const WriteResult r = s->write(idx, cur + 1);
        EXPECT_GT(r.new_value, cur);
    }
}

TEST_P(SchemeInvariants, RandomInitEncodableAndBounded)
{
    auto s = makeScheme(GetParam(), 1024);
    rmcc::util::Rng rng(7);
    s->randomInit(rng, 100000);
    for (std::uint64_t i = 0; i < 1024; ++i) {
        EXPECT_GE(s->read(i), 100000u / 2);
        EXPECT_LT(s->read(i), 100000u * 2);
    }
    // Post-init, +1 writes should be mostly encodable.
    std::uint64_t overflows = 0;
    for (std::uint64_t i = 0; i < 1024; ++i)
        overflows += s->write(i, s->read(i) + 1).overflow;
    EXPECT_LT(overflows, 20u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeInvariants,
                         ::testing::Values(SchemeKind::SgxMonolithic,
                                           SchemeKind::SC64,
                                           SchemeKind::Morphable));

TEST(Tree, LevelsAndEntities)
{
    IntegrityTree tree(SchemeKind::Morphable, 128 * 128 * 4);
    // The 4 L1 counter blocks' own counters live in the on-chip root.
    EXPECT_EQ(tree.levels(), 2u);
    EXPECT_EQ(tree.level(0).entities(), 128u * 128 * 4);
    EXPECT_EQ(tree.level(1).entities(), 128u * 4);
    EXPECT_EQ(tree.blocksAt(1), 4u);
}

TEST(Tree, BlockAddressesMatchLayout)
{
    IntegrityTree tree(SchemeKind::Morphable, 128 * 128);
    const auto a0 = tree.blockAddr(0, 0);
    EXPECT_EQ(a0, tree.layout().counterBlockAddr(0, 0));
    EXPECT_GT(tree.blockAddr(1, 0), tree.blockAddr(0, 127));
}

TEST(Tree, ObservedMaxTracksAllLevels)
{
    IntegrityTree tree(SchemeKind::SgxMonolithic, 8 * 8 * 16);
    tree.level(1).write(0, 777);
    EXPECT_EQ(tree.observedMax(), 777u);
}

TEST(Tree, RandomInitAllLevels)
{
    IntegrityTree tree(SchemeKind::Morphable, 128 * 128);
    rmcc::util::Rng rng(3);
    tree.randomInit(rng, 5000);
    EXPECT_GE(tree.level(0).read(0), 2500u);
    EXPECT_GE(tree.level(1).read(0), 2500u);
    EXPECT_GE(tree.observedMax(), 5000u / 2);
}

/** FNV-1a over the eight bytes of v, folded into h. */
static std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(Morphable, RandomInitDigestPinned)
{
    // Values, majors, formats, block maxima and the observed max after
    // randomInit, pinned from the per-block chooseFormat/refreshSummary
    // implementation this one replaced: the same RNG draws must land in
    // the same places.  The last block is partial (37 entities).
    const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
        {11, 0xe67fc855d3260317ULL},
        {2024, 0x1f4b8f49277e6593ULL},
    };
    for (const auto &[seed, want] : pinned) {
        const std::uint64_t n = 128 * 300 + 37;
        MorphableScheme s(n);
        rmcc::util::Rng rng(seed);
        s.randomInit(rng, 1u << 20);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::uint64_t i = 0; i < n; ++i)
            h = fnvMix(h, s.read(i));
        for (std::uint64_t cb = 0; cb * 128 < n; ++cb) {
            h = fnvMix(h, s.major(cb));
            h = fnvMix(h, static_cast<std::uint64_t>(s.format(cb)));
            h = fnvMix(h, s.blockMax(cb * 128));
        }
        h = fnvMix(h, s.observedMax());
        EXPECT_EQ(h, want) << "seed " << seed;
    }
}

namespace
{

/**
 * The Morphable format predicates restated over explicit offsets: does
 * some format hold them?  (Uniform3X has three exception slots.)
 */
bool
fitsSomeFormat(const std::vector<CounterValue> &offsets)
{
    CounterValue max_off = 0;
    unsigned nonzero = 0, ge8 = 0;
    for (const CounterValue o : offsets) {
        max_off = std::max(max_off, o);
        nonzero += o != 0;
        ge8 += o >= 8;
    }
    for (const MorphFormatInfo &f : morphFormats()) {
        if (f.id == MorphFormat::Uniform3X) {
            if (max_off < (1u << 13) && ge8 <= 3)
                return true;
        } else if (max_off < (CounterValue{1} << f.minor_bits) &&
                   (f.id == MorphFormat::Uniform3 ||
                    nonzero <= f.max_nonzero)) {
            return true;
        }
    }
    return false;
}

/** 64-bit shadow of a MorphableScheme's values, with reference answers. */
struct MorphShadow
{
    std::vector<CounterValue> v;
    CounterValue observed_max = 0;

    std::pair<std::uint64_t, std::uint64_t> block(std::uint64_t idx) const
    {
        const std::uint64_t first = idx / 128 * 128;
        return {first, std::min<std::uint64_t>(first + 128, v.size())};
    }

    /** idx's block with idx set to value. */
    std::vector<CounterValue> withValue(std::uint64_t idx,
                                        CounterValue value) const
    {
        const auto [first, last] = block(idx);
        std::vector<CounterValue> vals(v.begin() + first, v.begin() + last);
        vals[idx - first] = value;
        return vals;
    }

    /** Encodable against the current major, or after a min-shift. */
    bool encodable(std::uint64_t idx, CounterValue value,
                   CounterValue major) const
    {
        std::vector<CounterValue> vals = withValue(idx, value);
        const CounterValue lo = *std::min_element(vals.begin(), vals.end());
        const CounterValue base = value >= major ? major : lo;
        std::vector<CounterValue> offs;
        for (const CounterValue x : vals)
            offs.push_back(x - base);
        if (fitsSomeFormat(offs))
            return true;
        for (CounterValue &o : offs)
            o = o + base - lo;
        return fitsSomeFormat(offs);
    }

    bool cheaplyEncodable(std::uint64_t idx, CounterValue value) const
    {
        const std::vector<CounterValue> vals = withValue(idx, value);
        return *std::max_element(vals.begin(), vals.end()) -
                   *std::min_element(vals.begin(), vals.end()) <
               8;
    }

    void set(std::uint64_t i, CounterValue x)
    {
        v[i] = x;
        observed_max = std::max(observed_max, x);
    }
};

} // namespace

TEST(Morphable, DifferentialAgainstShadowValues)
{
    // A seeded mix of writes (small, medium and far), whole-block bumps,
    // relevels and encodability queries on a small scheme with a partial
    // last block.  A 64-bit shadow follows every WriteResult; after every
    // op the scheme's reads, block maxima, observed max and range counts
    // must match it, and every touched block must survive a 512-bit
    // pack/unpack round trip.
    const std::uint64_t n = 3 * 128 + 5;
    for (const bool random_init : {false, true}) {
        MorphableScheme s(n);
        rmcc::util::Rng rng(random_init ? 7 : 8);
        if (random_init)
            s.randomInit(rng, 5000);
        MorphShadow sh;
        sh.v.resize(n);
        for (std::uint64_t i = 0; i < n; ++i)
            sh.set(i, s.read(i));
        std::uint64_t min_shifts = 0, rebases = 0, relevels = 0;
        std::uint64_t below_major_fits = 0, below_major_refused = 0;

        const auto check = [&](std::uint64_t touched, int op) {
            for (std::uint64_t i = 0; i < n; ++i)
                ASSERT_EQ(s.read(i), sh.v[i]) << "op " << op << " i " << i;
            const auto [first, last] = sh.block(touched);
            const CounterValue bmax =
                *std::max_element(sh.v.begin() + first, sh.v.begin() + last);
            ASSERT_EQ(s.blockMax(touched), bmax) << "op " << op;
            ASSERT_EQ(s.observedMax(), sh.observed_max) << "op " << op;
            const auto [major, offs] = MorphableScheme::unpackBlock(
                s.packBlock(touched / 128));
            ASSERT_EQ(major, s.major(touched / 128)) << "op " << op;
            for (std::uint64_t i = first; i < last; ++i)
                ASSERT_EQ(major + offs[i - first], sh.v[i])
                    << "op " << op << " i " << i;
            // Ranges with edges at and around the touched block's values.
            const CounterValue a = sh.v[first + rng.nextBelow(last - first)];
            const std::vector<ValueRange> ranges = {
                {a > 3 ? a - 3 : 0, a + 1}, {a + 2, bmax + 1 + a % 3}};
            std::uint64_t dense = 0;
            for (const CounterValue x : sh.v)
                dense += rmcc::ctr::inRanges(x, ranges);
            ASSERT_EQ(s.countInRanges(ranges), dense) << "op " << op;
        };

        for (int op = 0; op < 6000; ++op) {
            std::uint64_t idx = rng.nextBelow(n);
            const std::uint64_t cb = idx / 128;
            const CounterValue major = s.major(cb);
            const unsigned kind = static_cast<unsigned>(rng.nextBelow(100));
            if (kind < 20) {
                // Query a candidate, possibly below the major.
                const CounterValue lo = major > 20 ? major - 20 : 0;
                const CounterValue v =
                    lo + rng.nextBelow(rng.nextBool(0.5) ? 40 : 70000);
                const bool want = sh.encodable(idx, v, major);
                ASSERT_EQ(s.encodable(idx, v), want) << "op " << op;
                ASSERT_EQ(s.cheaplyEncodable(idx, v),
                          sh.cheaplyEncodable(idx, v))
                    << "op " << op;
                if (v < major)
                    ++(want ? below_major_fits : below_major_refused);
            } else if (kind < 23) {
                const CounterValue target =
                    s.blockMax(idx) + 1 + rng.nextBelow(50);
                const WriteResult r = s.relevelBlock(idx, target);
                const auto [first, last] = sh.block(idx);
                ASSERT_EQ(r.reencrypt_blocks, last - first);
                for (std::uint64_t i = first; i < last; ++i)
                    sh.set(i, target);
                ++relevels;
            } else {
                // Write one entity, or bump every entity of the block by
                // the same small step (the drift a min-shift absorbs).
                const bool bump = kind < 33;
                const auto [first, last] = sh.block(idx);
                const std::uint64_t step = 1 + rng.nextBelow(3);
                for (std::uint64_t i = bump ? first : idx;
                     i < (bump ? last : idx + 1); ++i) {
                    const unsigned far = static_cast<unsigned>(
                        rng.nextBelow(100));
                    const CounterValue v =
                        sh.v[i] + (bump        ? step
                                   : far < 70 ? 1 + rng.nextBelow(4)
                                   : far < 95 ? 1 + rng.nextBelow(300)
                                              : 1 + rng.nextBelow(70000));
                    const CounterValue major_before = s.major(cb);
                    const bool fits = sh.encodable(i, v, major_before);
                    const std::vector<CounterValue> vals = sh.withValue(i, v);
                    const WriteResult r = s.write(i, v);
                    ASSERT_EQ(r.overflow, !fits) << "op " << op;
                    if (fits) {
                        ASSERT_EQ(r.new_value, v);
                        sh.set(i, v);
                        if (s.major(cb) != major_before) {
                            ASSERT_EQ(s.major(cb),
                                      *std::min_element(vals.begin(),
                                                        vals.end()));
                            ++min_shifts;
                        }
                    } else {
                        const CounterValue vmax =
                            *std::max_element(vals.begin(), vals.end());
                        ASSERT_EQ(r.new_value, vmax);
                        ASSERT_EQ(r.reencrypt_blocks, last - first);
                        for (std::uint64_t j = first; j < last; ++j)
                            sh.set(j, vmax);
                        ++rebases;
                    }
                    idx = i;
                }
            }
            check(idx, op);
            if (HasFatalFailure())
                return;
        }
        // The sequence reached every path the 16-bit offsets must get
        // right.
        EXPECT_GT(min_shifts, 0u);
        EXPECT_GT(rebases, 0u);
        EXPECT_GT(relevels, 0u);
        EXPECT_GT(below_major_fits, 0u);
        EXPECT_GT(below_major_refused, 0u);
    }
}

/** countInRanges against a dense per-counter count. */
class CountInRanges : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(CountInRanges, MatchesDenseCount)
{
    const std::uint64_t n = 128 * 64 + 50; // partial last block
    auto s = makeScheme(GetParam(), n);
    rmcc::util::Rng rng(99);
    s->randomInit(rng, 4096);
    // Drift: monotone writes (some far, forcing min-shifts and rebases)
    // and whole-block relevels.
    for (int k = 0; k < 6000; ++k) {
        const std::uint64_t idx = rng.nextBelow(n);
        const CounterValue cur = s->read(idx);
        if (rng.nextBool(0.01))
            s->relevelBlock(idx, s->blockMax(idx) + 1 + rng.nextBelow(40));
        else
            s->write(idx, cur + 1 + (rng.nextBool(0.05)
                                         ? rng.nextBelow(300)
                                         : rng.nextBelow(3)));
    }
    const auto dense = [&](const std::vector<ValueRange> &ranges) {
        std::uint64_t c = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const CounterValue v = s->read(i);
            for (const auto &[lo, hi] : ranges)
                c += lo <= v && v < hi;
        }
        return c;
    };
    // Block 3 at the edge of the 16-bit offsets: releveled, then three
    // entities written to 50, 40000 and 65535 above the block minimum.
    // Morphable keeps that in Index16, with offsets up to 2^16 - 1.
    const std::uint64_t b3 = 3 * s->coverage();
    s->relevelBlock(b3, s->blockMax(b3) + 1);
    const CounterValue m3 = s->read(b3);
    for (const auto &[i, off] : {std::pair<std::uint64_t, CounterValue>{
                                     b3 + 5, 65535},
                                 {b3 + 7, 50},
                                 {b3 + 9, 40000}})
        s->write(i, m3 + off);
    if (GetParam() == SchemeKind::Morphable) {
        const auto &m = static_cast<const MorphableScheme &>(*s);
        ASSERT_EQ(m.major(3), m3);
        ASSERT_EQ(s->read(b3 + 5), m3 + 65535);
        ASSERT_EQ(s->blockMax(b3), m3 + 65535);
    }
    const std::vector<std::vector<ValueRange>> edge_cases = {
        {{m3 + 65535, m3 + 65536}},           // only the top offset
        {{m3 + 65534, m3 + 70000}},           // ends above the block
        {{m3 + 1, m3 + 65535}},               // all but both ends
        {{m3 + 10, m3 + 60}},                 // strictly inside the block
        {{m3, m3 + 1}, {m3 + 50, m3 + 51}, {m3 + 40000, m3 + 65536}},
    };
    for (const auto &ranges : edge_cases)
        EXPECT_EQ(s->countInRanges(ranges), dense(ranges))
            << "[" << ranges.front().first - m3 << ", "
            << ranges.back().second - m3 << ")";
    for (int trial = 0; trial < 200; ++trial) {
        // Edges drawn around block bounds: a block's minimum, maximum and
        // their neighbours, so ranges start and end inside blocks, on
        // their bounds and in the gaps between them.
        std::vector<CounterValue> edges;
        const unsigned n_edges = 2 + 2 * static_cast<unsigned>(
                                             rng.nextBelow(8));
        while (edges.size() < n_edges) {
            const std::uint64_t idx = rng.nextBelow(n);
            const std::uint64_t first = s->blockOf(idx) * s->coverage();
            CounterValue lo = s->read(first);
            for (std::uint64_t i = first;
                 i < std::min<std::uint64_t>(first + s->coverage(), n); ++i)
                lo = std::min(lo, s->read(i));
            const CounterValue anchor =
                rng.nextBool() ? lo : s->blockMax(idx);
            edges.push_back(anchor + rng.nextBelow(5) - 2);
        }
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        std::vector<ValueRange> ranges;
        for (std::size_t e = 0; e + 1 < edges.size(); e += 2)
            ranges.emplace_back(edges[e], edges[e + 1]);
        EXPECT_EQ(s->countInRanges(ranges), dense(ranges))
            << "trial " << trial;
    }
    EXPECT_EQ(s->countInRanges({}), 0u);
    const std::vector<ValueRange> all = {{0, ~CounterValue{0}}};
    EXPECT_EQ(s->countInRanges(all), n);
}

// Morphable overrides countInRanges with the block-bounds count; SC-64
// runs the default dense pass.
INSTANTIATE_TEST_SUITE_P(Schemes, CountInRanges,
                         ::testing::Values(SchemeKind::Morphable,
                                           SchemeKind::SC64));

// ---------------------------------------------------------------------------
// randomInit checkpoints and restoreInit
// ---------------------------------------------------------------------------

namespace
{

/** Every observable of two trees is equal, level by level. */
void
expectSameTree(const IntegrityTree &a, const IntegrityTree &b)
{
    ASSERT_EQ(a.levels(), b.levels());
    EXPECT_EQ(a.observedMax(), b.observedMax());
    EXPECT_EQ(a.totalOverflows(), b.totalOverflows());
    for (unsigned k = 0; k < a.levels(); ++k) {
        const CounterScheme &x = a.level(k);
        const CounterScheme &y = b.level(k);
        ASSERT_EQ(x.entities(), y.entities());
        for (std::uint64_t i = 0; i < x.entities(); ++i)
            ASSERT_EQ(x.read(i), y.read(i)) << "level " << k << " i " << i;
        EXPECT_EQ(x.observedMax(), y.observedMax()) << "level " << k;
        EXPECT_EQ(x.overflows(), y.overflows()) << "level " << k;
        const auto *mx = dynamic_cast<const MorphableScheme *>(&x);
        const auto *my = dynamic_cast<const MorphableScheme *>(&y);
        ASSERT_EQ(mx == nullptr, my == nullptr);
        if (mx == nullptr)
            continue;
        EXPECT_EQ(mx->morphs(), my->morphs()) << "level " << k;
        for (std::uint64_t cb = 0; cb < a.blocksAt(k); ++cb)
            ASSERT_EQ(mx->packBlock(cb), my->packBlock(cb))
                << "level " << k << " block " << cb;
    }
}

/**
 * A seeded mix of counter updates on one level of a tree: +1 and far
 * writes through write(), or whole-block relevels, on entities drawn
 * from [first, last).
 */
void
mutate(IntegrityTree &tree, unsigned level, std::uint64_t first,
       std::uint64_t last, bool writes, bool relevels, std::uint64_t seed)
{
    rmcc::util::Rng rng(seed);
    CounterScheme &s = tree.level(level);
    for (int op = 0; op < 400; ++op) {
        const std::uint64_t idx = first + rng.nextBelow(last - first);
        const bool relevel = relevels && (!writes || rng.nextBool(0.3));
        if (relevel) {
            s.relevelBlock(idx, s.blockMax(idx) + 1 + rng.nextBelow(300));
        } else {
            const CounterValue step =
                rng.nextBool(0.2) ? 100 + rng.nextBelow(9000) : 1;
            s.write(idx, s.read(idx) + step);
        }
    }
}

} // namespace

/** randomInit checkpoints and restoreInit, for every scheme. */
class CounterRestore : public ::testing::TestWithParam<SchemeKind>
{
  protected:
    /** Data blocks: three full level-0 chunks and a partial fourth. */
    std::uint64_t dataBlocks() const
    {
        return schemeCoverage(GetParam()) * CounterScheme::kChunkBlocks *
                   3 +
               37;
    }
};

TEST_P(CounterRestore, RestoreEqualsFreshInit)
{
    IntegrityTree fresh(GetParam(), dataBlocks());
    rmcc::util::Rng rng_a(99);
    fresh.randomInit(rng_a, 1u << 20);

    IntegrityTree tree(GetParam(), dataBlocks());
    rmcc::util::Rng rng_b(99);
    tree.randomInit(rng_b, 1u << 20);
    expectSameTree(tree, fresh);
    const std::uint64_t chunk =
        schemeCoverage(GetParam()) * CounterScheme::kChunkBlocks;
    for (int round = 0; round < 3; ++round) {
        // Writes only in chunk 0, relevels only in chunk 2 and the
        // partial last chunk, and both on level 1: each mutator has
        // chunks of its own, so a mutator that forgot to mark its chunk
        // leaves a difference restoreInit cannot hide.
        mutate(tree, 0, 0, chunk, true, false, 10 + round);
        mutate(tree, 0, 2 * chunk, dataBlocks(), false, true, 20 + round);
        mutate(tree, 1, 0, tree.level(1).entities(), true, true,
               30 + round);
        tree.level(0).write(5, tree.observedMax() + 1000);
        EXPECT_GE(tree.level(0).dirtyChunks(), 3u);
        EXPECT_NE(tree.observedMax(), fresh.observedMax());
        tree.restoreInit();
        EXPECT_EQ(tree.level(0).dirtyChunks(), 0u);
        expectSameTree(tree, fresh);
    }
}

TEST_P(CounterRestore, OverflowsAndMorphsRewind)
{
    // Far writes overflow every scheme but monolithic and morph
    // Morphable blocks; restore takes both counts back to the post-init
    // zero.
    IntegrityTree fresh(GetParam(), dataBlocks());
    rmcc::util::Rng rng_a(5);
    fresh.randomInit(rng_a, 1000);
    IntegrityTree tree(GetParam(), dataBlocks());
    rmcc::util::Rng rng_b(5);
    tree.randomInit(rng_b, 1000);
    CounterScheme &l0 = tree.level(0);
    for (std::uint64_t i = 0; i < dataBlocks(); i += 3)
        l0.write(i, l0.read(i) + 1 + (i % 7) * 40000);
    if (GetParam() != SchemeKind::SgxMonolithic) {
        EXPECT_GT(tree.totalOverflows(), 0u);
    }
    tree.restoreInit();
    EXPECT_EQ(tree.totalOverflows(), 0u);
    expectSameTree(tree, fresh);
}

TEST_P(CounterRestore, NeverInitialisedRestoresToZero)
{
    const IntegrityTree zeros(GetParam(), dataBlocks());
    IntegrityTree tree(GetParam(), dataBlocks());
    mutate(tree, 0, 0, dataBlocks(), true, true, 1);
    mutate(tree, 1, 0, tree.level(1).entities(), true, true, 2);
    tree.restoreInit();
    expectSameTree(tree, zeros);
    EXPECT_EQ(tree.observedMax(), 0u);
}

TEST_P(CounterRestore, CleanChunksKeepTheirState)
{
    // restoreInit redraws dirty chunks only: a tree restored with no
    // mutation is the tree it was.
    IntegrityTree fresh(GetParam(), dataBlocks());
    rmcc::util::Rng rng_a(3);
    fresh.randomInit(rng_a, 777);
    IntegrityTree tree(GetParam(), dataBlocks());
    rmcc::util::Rng rng_b(3);
    tree.randomInit(rng_b, 777);
    tree.restoreInit();
    expectSameTree(tree, fresh);
    // randomInit leaves the caller's rng where a one-pass draw would.
    EXPECT_EQ(rng_a.next(), rng_b.next());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CounterRestore,
                         ::testing::Values(SchemeKind::SgxMonolithic,
                                           SchemeKind::SC64,
                                           SchemeKind::Morphable));

/**
 * @file
 * Memoization-aware counter-update tests (Sec IV-B/C): jump-to-nearest,
 * cheap vs far jumps, whole-block relevels, budget gating, and the
 * security invariant that counters only ever increase.
 */
#include <gtest/gtest.h>

#include "core/update_policy.hpp"
#include "counters/morphable.hpp"
#include "counters/monolithic.hpp"

using namespace rmcc::core;
using namespace rmcc::ctr;

namespace
{

struct PolicyRig
{
    MemoTable table;
    TrafficBudget budget;
    UpdatePolicy policy{table, budget, true};
    MorphableScheme scheme{256};

    explicit PolicyRig(double pool = 0.0)
    {
        budget.setPool(pool);
    }
};

/** How often the oracle took its far-jump paths. */
struct FarJumps
{
    int relevels = 0;          //!< Far jump with a relevel target.
    int overflow_relevels = 0; //!< ...relevelled because +1 overflows.
};

/**
 * Oracle: the enabled policy's write with the baseline-overflow check
 * evaluated up front on every write.  UpdatePolicy::onWrite evaluates it
 * only on the far-jump branch, the one that reads it, and must give the
 * same outcomes.
 */
UpdateOutcome
eagerOnWrite(MemoTable &table, TrafficBudget &budget, CounterScheme &scheme,
             std::uint64_t idx, FarJumps &far)
{
    const rmcc::addr::CounterValue cur = scheme.read(idx);
    const rmcc::addr::CounterValue baseline = cur + 1;
    const bool baseline_overflows = !scheme.encodable(idx, baseline);

    auto finish = [&](WriteResult r, bool memo, std::uint64_t overhead) {
        UpdateOutcome out;
        out.value = r.new_value;
        out.used_memo_target = memo;
        out.overflow = r.overflow;
        out.reencrypt_blocks = r.reencrypt_blocks;
        out.overhead_accesses = overhead;
        return out;
    };

    const auto target = table.nearestAbove(cur);
    if (!target || *target == baseline)
        return finish(scheme.write(idx, baseline), target.has_value(), 0);
    if (scheme.cheaplyEncodable(idx, *target))
        return finish(scheme.write(idx, *target), true, 0);
    const auto relevel_target = table.nearestAbove(scheme.blockMax(idx));
    if (relevel_target) {
        ++far.relevels;
        const std::uint64_t cost = 2ULL * scheme.coverage();
        if (baseline_overflows || budget.trySpend(cost)) {
            far.overflow_relevels += baseline_overflows;
            UpdateOutcome out =
                finish(scheme.relevelBlock(idx, *relevel_target), true,
                       baseline_overflows ? 0 : cost);
            out.overflow = baseline_overflows;
            return out;
        }
    }
    return finish(scheme.write(idx, baseline), false, 0);
}

} // namespace

TEST(UpdatePolicy, LazyOverflowCheckMatchesEagerOracle)
{
    // Random writebacks over two Morphable blocks whose counters sit
    // below, inside and between memoized groups, so writes take the
    // plus-one, free-jump and far-jump paths; the far jumps relevel at a
    // full budget and fall back to +1 (or relevel on overflow) when dry.
    for (const double pool : {1e9, 0.0}) {
        PolicyRig lazy(pool);
        PolicyRig eager(pool);
        rmcc::util::Rng init(3);
        lazy.scheme.randomInit(init, 400);
        rmcc::util::Rng init_again(3);
        eager.scheme.randomInit(init_again, 400);
        for (const rmcc::addr::CounterValue start : {420u, 2000u, 60000u}) {
            lazy.table.insertGroup(start);
            eager.table.insertGroup(start);
        }
        FarJumps far;
        rmcc::util::Rng rng(17);
        for (int i = 0; i < 20000; ++i) {
            // Skewed toward a few hot entities, whose offsets grow until
            // their block runs out of encodings.
            const std::uint64_t idx =
                rng.nextBelow(4) == 0 ? rng.nextBelow(256)
                                      : rng.nextBelow(24) * 10;
            const UpdateOutcome got = lazy.policy.onWrite(lazy.scheme, idx);
            const UpdateOutcome want =
                eagerOnWrite(eager.table, eager.budget, eager.scheme, idx,
                             far);
            ASSERT_EQ(got.value, want.value) << "write " << i;
            ASSERT_EQ(got.used_memo_target, want.used_memo_target);
            ASSERT_EQ(got.overflow, want.overflow);
            ASSERT_EQ(got.reencrypt_blocks, want.reencrypt_blocks);
            ASSERT_EQ(got.overhead_accesses, want.overhead_accesses);
            ASSERT_EQ(lazy.budget.available(), eager.budget.available());
        }
        for (std::uint64_t e = 0; e < lazy.scheme.entities(); ++e)
            ASSERT_EQ(lazy.scheme.read(e), eager.scheme.read(e));
        EXPECT_GT(far.relevels, 0) << "pool " << pool;
        if (pool == 0.0) {
            EXPECT_GT(far.overflow_relevels, 0);
        }
    }
}

TEST(UpdatePolicy, DisabledMeansBaselinePlusOne)
{
    MemoTable table;
    TrafficBudget budget;
    UpdatePolicy policy(table, budget, false);
    MorphableScheme scheme(128);
    table.insertGroup(100);
    const UpdateOutcome out = policy.onWrite(scheme, 0);
    EXPECT_EQ(out.value, 1u);
    EXPECT_FALSE(out.used_memo_target);
}

TEST(UpdatePolicy, NoMemoizedValueAboveFallsBackToPlusOne)
{
    PolicyRig rig;
    rig.scheme.relevelBlock(0, 500);
    rig.table.insertGroup(100); // max memoized = 107 < 500
    const UpdateOutcome out = rig.policy.onWrite(rig.scheme, 0);
    EXPECT_EQ(out.value, 501u);
    EXPECT_FALSE(out.used_memo_target);
}

TEST(UpdatePolicy, CheapJumpToNearestMemoizedValue)
{
    PolicyRig rig;
    rig.scheme.relevelBlock(0, 100);
    rig.table.insertGroup(103); // nearest above 100 is 103, span 3 < 8
    const UpdateOutcome out = rig.policy.onWrite(rig.scheme, 0);
    EXPECT_EQ(out.value, 103u);
    EXPECT_TRUE(out.used_memo_target);
    EXPECT_EQ(out.overhead_accesses, 0u);
    EXPECT_EQ(out.reencrypt_blocks, 0u);
}

TEST(UpdatePolicy, GroupWalkIsPlusOneInsideGroup)
{
    // Consecutive writebacks walk the group one value at a time
    // (paper Fig 7): counters 103 -> 104 -> 105 ...
    PolicyRig rig;
    rig.scheme.relevelBlock(0, 100);
    rig.table.insertGroup(103);
    rmcc::addr::CounterValue prev = 100;
    for (int w = 0; w < 5; ++w) {
        const UpdateOutcome out = rig.policy.onWrite(rig.scheme, 0);
        EXPECT_EQ(out.value, std::max<rmcc::addr::CounterValue>(
                                 prev + 1, 103u));
        prev = out.value;
    }
    EXPECT_EQ(rig.scheme.read(0), 107u);
}

TEST(UpdatePolicy, FarJumpRelevelsWholeBlockWhenBudgetAllows)
{
    PolicyRig rig(10000.0);
    rig.scheme.relevelBlock(0, 100);
    rig.table.insertGroup(5000); // far above the dense range
    const UpdateOutcome out = rig.policy.onWrite(rig.scheme, 0);
    EXPECT_TRUE(out.used_memo_target);
    EXPECT_EQ(out.value, 5000u);
    EXPECT_EQ(out.reencrypt_blocks, 128u);
    EXPECT_EQ(out.overhead_accesses, 2u * 128);
    // Every counter of the block releveled to the memoized value.
    EXPECT_EQ(rig.scheme.read(1), 5000u);
    EXPECT_EQ(rig.budget.totalSpent(), 256u);
}

TEST(UpdatePolicy, FarJumpWithoutBudgetFallsBackToPlusOne)
{
    PolicyRig rig(0.0);
    rig.scheme.relevelBlock(0, 100);
    rig.table.insertGroup(5000);
    const UpdateOutcome out = rig.policy.onWrite(rig.scheme, 0);
    EXPECT_FALSE(out.used_memo_target);
    EXPECT_EQ(out.value, 101u);
    EXPECT_EQ(out.reencrypt_blocks, 0u);
}

TEST(UpdatePolicy, FarRelevelDisallowedFallsBackToPlusOne)
{
    MemoTable table;
    TrafficBudget budget;
    budget.setPool(1e6);
    UpdatePolicy policy(table, budget, true,
                        /*allow_far_relevel=*/false);
    MorphableScheme scheme(128);
    scheme.relevelBlock(0, 100);
    table.insertGroup(5000);
    const UpdateOutcome out = policy.onWrite(scheme, 0);
    EXPECT_EQ(out.value, 101u);
    EXPECT_EQ(budget.totalSpent(), 0u);
}

TEST(UpdatePolicy, ReadMissRelevelsBlockWithinBudget)
{
    PolicyRig rig(1000.0);
    rig.scheme.relevelBlock(0, 100);
    rig.table.insertGroup(5000);
    const auto out = rig.policy.onReadMiss(rig.scheme, 0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->value, 5000u);
    EXPECT_EQ(out->reencrypt_blocks, 128u);
    EXPECT_EQ(rig.policy.readUpdates(), 1u);
    // All counters in the block now memoized.
    EXPECT_EQ(rig.scheme.read(5), 5000u);
}

TEST(UpdatePolicy, ReadMissSkippedWhenBudgetDry)
{
    PolicyRig rig(0.0);
    rig.table.insertGroup(5000);
    EXPECT_FALSE(rig.policy.onReadMiss(rig.scheme, 0).has_value());
    EXPECT_EQ(rig.policy.readUpdates(), 0u);
}

TEST(UpdatePolicy, ReadMissSkippedWhenNothingAbove)
{
    PolicyRig rig(1000.0);
    rig.scheme.relevelBlock(0, 9000);
    rig.table.insertGroup(5000);
    EXPECT_FALSE(rig.policy.onReadMiss(rig.scheme, 0).has_value());
}

TEST(UpdatePolicy, CountersStrictlyIncreaseUnderAnyPolicyPath)
{
    PolicyRig rig(1e9);
    rig.table.insertGroup(100);
    rig.table.insertGroup(300);
    rmcc::util::Rng rng(5);
    std::vector<rmcc::addr::CounterValue> last(256, 0);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t idx = rng.nextBelow(256);
        const auto before = rig.scheme.read(idx);
        const UpdateOutcome out = rig.policy.onWrite(rig.scheme, idx);
        EXPECT_GT(out.value, before);
        EXPECT_GE(rig.scheme.read(idx), out.value);
        last[idx] = out.value;
    }
}

TEST(UpdatePolicy, SelfReinforcementGrowsCoverage)
{
    // Paper Fig 6: the memoized values' coverage grows monotonically as
    // blocks are written back.
    PolicyRig rig(1e9);
    rig.table.insertGroup(200000);
    rmcc::util::Rng rng(11);
    rig.scheme.randomInit(rng, 100000);
    auto coverage = [&]() {
        std::uint64_t covered = 0;
        for (std::uint64_t i = 0; i < rig.scheme.entities(); ++i)
            covered += rig.table.inGroups(rig.scheme.read(i));
        return covered;
    };
    const std::uint64_t before = coverage();
    for (std::uint64_t i = 0; i < rig.scheme.entities(); ++i)
        rig.policy.onWrite(rig.scheme, i);
    EXPECT_GT(coverage(), before);
    EXPECT_GT(coverage(), rig.scheme.entities() / 2);
}

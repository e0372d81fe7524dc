/**
 * @file
 * Secure-MC tests: read/write path latencies for cached vs missing
 * counters with and without memoization, verification chains, overflow
 * engine caps, and the Fig 5 latency anatomy.
 */
#include <gtest/gtest.h>

#include "mc/latency.hpp"
#include "mc/overflow_engine.hpp"
#include "mc/secure_mc.hpp"

using namespace rmcc;
using namespace rmcc::mc;

namespace
{

struct McRig
{
    ctr::IntegrityTree tree;
    core::RmccEngine engine;
    dram::Ddr4 dram;
    SecureMc mc;

    explicit McRig(bool secure, bool rmcc,
                   std::uint64_t data_blocks = 128 * 128 * 4)
        : tree(ctr::SchemeKind::Morphable, data_blocks),
          engine(makeCfg(rmcc), tree),
          dram(quietDram()),
          mc(makeMcCfg(secure), tree, engine, dram)
    {
    }

    static McConfig makeMcCfg(bool secure)
    {
        McConfig cfg; // 128 KiB, 32-way counter cache, default latencies
        cfg.secure = secure;
        return cfg;
    }

    static core::RmccConfig makeCfg(bool rmcc)
    {
        core::RmccConfig cfg;
        cfg.enabled = rmcc;
        cfg.budget.initial_pool_accesses = 1e6;
        // These microtests control counter state explicitly; background
        // read-releveling would add DRAM drain traffic between probes.
        cfg.read_update = false;
        return cfg;
    }

    static dram::DramConfig quietDram()
    {
        dram::DramConfig cfg;
        cfg.tREFI_ns = 1e12;
        return cfg;
    }
};

} // namespace

TEST(SecureMc, NonSecureReadIsJustDram)
{
    McRig rig(false, false);
    const McReadResult r = rig.mc.read(0x1000, 0.0);
    EXPECT_FALSE(r.counter_miss);
    EXPECT_LT(r.done_ns, 50.0);
    EXPECT_DOUBLE_EQ(rig.mc.stats().get("dram.total"), 1.0);
}

TEST(SecureMc, FirstSecureReadWalksTheTree)
{
    McRig rig(true, false);
    const McReadResult r = rig.mc.read(0x1000, 0.0);
    EXPECT_TRUE(r.counter_miss);
    // L0 + L1 counter blocks fetched (the level above lives on-chip).
    EXPECT_DOUBLE_EQ(rig.mc.stats().get("dram.ctr_read"), 2.0);
    EXPECT_GT(r.done_ns, 40.0);
}

TEST(SecureMc, CounterHitHidesAesUnderDataFetch)
{
    McRig rig(true, false);
    rig.mc.read(0x1000, 0.0); // warm the counter cache
    const double t = 1000.0;
    const McReadResult hit = rig.mc.read(0x1040, t); // same counter block
    EXPECT_FALSE(hit.counter_miss);
    // AES (15 ns) + decode start immediately and mostly hide under the
    // ~row-miss DRAM access.
    EXPECT_LT(hit.done_ns - t, 55.0);
}

TEST(SecureMc, CounterMissSerializesAesWithoutRmcc)
{
    McRig rig(true, false);
    const double t = 1000.0;
    const McReadResult miss = rig.mc.read(0x200000, t);
    EXPECT_TRUE(miss.counter_miss);
    // Counter fetch (parallel with data) + decode + AES serialize on top.
    EXPECT_GT(miss.done_ns - t, 45.0);
}

TEST(SecureMc, MemoHitShavesAesLatencyOnCounterMiss)
{
    McRig baseline(true, false);
    McRig rmcc(true, true);
    // Converge the RMCC table on the counters this block will use.
    rmcc.engine.table(0).insertGroup(100);
    rmcc.tree.level(0).relevelBlock(addr::blockOf(0x200000), 103);
    // Warm the upper tree levels (steady state: they are tiny and hot);
    // 0x210000 shares L1 with 0x200000 but uses a different L0 block.
    baseline.mc.read(0x210000, 0.0);
    rmcc.mc.read(0x210000, 0.0);

    const double t = 1000.0;
    const McReadResult b = baseline.mc.read(0x200000, t);
    const McReadResult r = rmcc.mc.read(0x200000, t);
    ASSERT_TRUE(b.counter_miss);
    ASSERT_TRUE(r.counter_miss);
    EXPECT_TRUE(r.memo_hit);
    EXPECT_TRUE(r.accelerated);
    // The memoized path saves roughly AES - CLMUL = 14 ns.
    EXPECT_LT(r.done_ns, b.done_ns - 8.0);
}

TEST(SecureMc, WritePathUpdatesCounterAndWritesData)
{
    McRig rig(true, false);
    rig.mc.write(0x3000, 0.0);
    const addr::BlockId blk = addr::blockOf(0x3000);
    EXPECT_EQ(rig.tree.level(0).read(blk), 1u);
    EXPECT_DOUBLE_EQ(rig.mc.stats().get("dram.data_write"), 1.0);
    // Counter block was fetched for the read-modify-write.
    EXPECT_GE(rig.mc.stats().get("dram.ctr_read"), 1.0);
}

TEST(SecureMc, RepeatedWritesIncrementByOneBaseline)
{
    McRig rig(true, false);
    const addr::BlockId blk = addr::blockOf(0x3000);
    for (int i = 0; i < 5; ++i)
        rig.mc.write(0x3000, static_cast<double>(i) * 100);
    EXPECT_EQ(rig.tree.level(0).read(blk), 5u);
}

TEST(SecureMc, StatsConservation)
{
    McRig rig(true, true);
    double t = 0.0;
    for (int i = 0; i < 300; ++i) {
        rig.mc.read(static_cast<addr::Addr>(i) * 8192, t);
        t += 30.0;
        if (i % 3 == 0)
            rig.mc.write(static_cast<addr::Addr>(i) * 8192, t);
    }
    const auto &s = rig.mc.stats();
    EXPECT_DOUBLE_EQ(s.get("ctr.l0_hit") + s.get("ctr.l0_miss"),
                     s.get("mc.reads"));
    EXPECT_DOUBLE_EQ(s.get("memo.l0_lookups_all"), s.get("mc.reads"));
    EXPECT_LE(s.get("memo.l0_hit_on_miss"),
              s.get("memo.l0_lookups_on_miss"));
    // Every DRAM category sums to the total.
    double cat = 0.0;
    for (const char *c : {"dram.data_read", "dram.data_write",
                          "dram.ctr_read", "dram.ctr_write", "dram.ovf0",
                          "dram.ovf_hi", "dram.update"})
        cat += s.get(c);
    EXPECT_DOUBLE_EQ(cat, s.get("dram.total"));
}

TEST(OverflowEngine, CapStallsThirdOverflow)
{
    dram::Ddr4 dram(McRig::quietDram());
    OverflowEngine ovf(dram, 2);
    const OverflowIssue a = ovf.schedule(0, 64, 0.0);
    const OverflowIssue b = ovf.schedule(1 << 20, 64, 0.0);
    EXPECT_DOUBLE_EQ(a.stall_until_ns, 0.0);
    EXPECT_DOUBLE_EQ(b.stall_until_ns, 0.0);
    // Third overflow while two are in flight: the core stalls.
    const OverflowIssue c = ovf.schedule(2 << 20, 64, 0.0);
    EXPECT_GT(c.stall_until_ns, 0.0);
    EXPECT_GT(ovf.totalStallNs(), 0.0);
    EXPECT_EQ(ovf.overflowCount(), 3u);
    EXPECT_EQ(ovf.totalAccesses(), 3u * 128);
}

TEST(OverflowEngine, NoStallAfterDrain)
{
    dram::Ddr4 dram(McRig::quietDram());
    OverflowEngine ovf(dram, 2);
    const OverflowIssue a = ovf.schedule(0, 64, 0.0);
    ovf.schedule(1 << 20, 64, 0.0);
    const OverflowIssue c =
        ovf.schedule(2 << 20, 64, a.drain_done_ns + 10000.0);
    EXPECT_DOUBLE_EQ(c.stall_until_ns, a.drain_done_ns + 10000.0);
}

TEST(Fig5Anatomy, MemoizationSavesAesMinusClmul)
{
    const LatencyConfig lat;
    const ReadAnatomy base = fig5Anatomy(45.0, 45.0, 3.0, lat, false);
    const ReadAnatomy memo = fig5Anatomy(45.0, 45.0, 3.0, lat, true);
    // Baseline: counter at 48, + AES 15 -> OTP at 63.
    EXPECT_NEAR(base.otp_ready_ns, 63.0, 1e-9);
    EXPECT_NEAR(memo.otp_ready_ns, 49.0, 1e-9);
    EXPECT_NEAR(base.done_ns - memo.done_ns, 14.0, 1e-9);
}

TEST(Fig5Anatomy, AddressAesBoundsTheFastPath)
{
    // With an instant counter, the address-only AES (started at t=0)
    // bounds OTP readiness.
    const LatencyConfig lat;
    const ReadAnatomy a = fig5Anatomy(45.0, 0.0, 0.0, lat, true);
    EXPECT_NEAR(a.otp_ready_ns, lat.aes_ns, 1e-9);
}

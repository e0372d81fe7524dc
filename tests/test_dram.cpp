/**
 * @file
 * DRAM model tests: address decode, row-buffer state machine, timing
 * ordering (hit < closed < conflict), bus serialization, refresh, and
 * the FR-FCFS cap.
 */
#include <gtest/gtest.h>

#include "dram/ddr4.hpp"

using namespace rmcc::dram;
using rmcc::addr::Addr;

namespace
{

DramConfig
quietConfig()
{
    DramConfig cfg;
    cfg.tREFI_ns = 1e12; // keep refresh out of timing tests
    return cfg;
}

} // namespace

TEST(Mapping, DecodeIsStableAndInBounds)
{
    const DramConfig cfg;
    AddressMapper m(cfg);
    for (Addr a = 0; a < (1ULL << 24); a += 4096 + 64) {
        const DramCoord c = m.decode(a);
        EXPECT_LT(c.channel, cfg.channels);
        EXPECT_LT(c.rank, cfg.ranks);
        EXPECT_LT(c.bank, cfg.banks_per_rank);
        const DramCoord c2 = m.decode(a);
        EXPECT_EQ(c.row, c2.row);
        EXPECT_EQ(c.bank, c2.bank);
    }
}

TEST(Mapping, SequentialBlocksShareRow)
{
    const DramConfig cfg;
    AddressMapper m(cfg);
    const DramCoord a = m.decode(0);
    const DramCoord b = m.decode(64);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_NE(a.column, b.column);
}

TEST(Mapping, XorHashSpreadsRowStrides)
{
    // Accesses striding by exactly one row land in different banks.
    const DramConfig cfg;
    AddressMapper m(cfg);
    const Addr row_stride =
        cfg.row_bytes * cfg.channels * cfg.banks_per_rank * cfg.ranks /
        cfg.banks_per_rank; // one full row per bank-group wrap
    const DramCoord a = m.decode(0);
    const DramCoord b = m.decode(row_stride);
    // With the XOR hash, same raw bank bits + different row -> different
    // bank index (for odd row deltas).
    EXPECT_TRUE(a.bank != b.bank || a.row == b.row);
}

TEST(Bank, RowHitFasterThanClosedFasterThanConflict)
{
    const DramConfig cfg = quietConfig();
    const double burst = cfg.burstNs();
    Bank bank;
    RowOutcome out;
    const double closed = bank.issue(0.0, 5, cfg, burst, out);
    EXPECT_EQ(out, RowOutcome::Closed);
    const double t1 = bank.readyAt();
    const double hit = bank.issue(t1, 5, cfg, burst, out) - t1;
    EXPECT_EQ(out, RowOutcome::Hit);
    const double t2 = bank.readyAt();
    const double conflict = bank.issue(t2, 9, cfg, burst, out) - t2;
    EXPECT_EQ(out, RowOutcome::Conflict);
    EXPECT_LT(hit, closed);
    EXPECT_LT(closed, conflict);
    EXPECT_NEAR(hit, cfg.tCL_ns, 1e-9);
    EXPECT_NEAR(conflict, cfg.tRP_ns + cfg.tRCD_ns + cfg.tCL_ns, 1e-9);
}

TEST(Bank, RowTimeoutClosesIdleRow)
{
    const DramConfig cfg = quietConfig();
    const double burst = cfg.burstNs();
    Bank bank;
    RowOutcome out;
    bank.issue(0.0, 5, cfg, burst, out);
    // Long idle: the 500 ns timeout precharges the row in the background.
    bank.issue(10000.0, 5, cfg, burst, out);
    EXPECT_EQ(out, RowOutcome::Closed);
}

TEST(Channel, BusSerializesBursts)
{
    const DramConfig cfg = quietConfig();
    Channel ch(cfg, 0);
    // Two simultaneous row hits to different banks: the second burst must
    // wait for the shared bus.
    DramCoord a{0, 0, 0, 5, 0};
    DramCoord b{0, 0, 1, 5, 0};
    ch.serve(a, false, 0.0);
    ch.serve(b, false, 0.0);
    const DramCompletion c1 = ch.serve(a, false, 100.0);
    const DramCompletion c2 = ch.serve(b, false, 100.0);
    EXPECT_GE(c2.done_ns, c1.done_ns + cfg.burstNs() - 1e-9);
}

TEST(Channel, RefreshBlackoutDelaysRequests)
{
    DramConfig cfg;
    cfg.tREFI_ns = 1000.0;
    cfg.tRFC_ns = 350.0;
    Channel ch(cfg, 0);
    DramCoord a{0, 0, 0, 5, 0};
    // Rank 0's first refresh window starts at tREFI/ranks = 125 ns.
    const DramCompletion c = ch.serve(a, false, 130.0);
    EXPECT_GE(c.done_ns, 125.0 + cfg.tRFC_ns);
}

TEST(Channel, FrFcfsCapBreaksHitStreak)
{
    const DramConfig cfg = quietConfig();
    Channel ch(cfg, 0);
    DramCoord a{0, 0, 0, 5, 0};
    ch.serve(a, false, 0.0); // opens the row
    unsigned conflicts = 0;
    double t = 1000.0;
    for (int i = 0; i < 12; ++i) {
        const DramCompletion c = ch.serve(a, false, t);
        conflicts += c.outcome == RowOutcome::Conflict;
        t = c.done_ns;
    }
    // cap = 4: roughly every 5th access is forced to the conflict path.
    EXPECT_GE(conflicts, 2u);
    EXPECT_LE(conflicts, 4u);
}

TEST(Ddr4, StatsAggregateAcrossAccesses)
{
    Ddr4 dram(quietConfig());
    double t = 0.0;
    for (int i = 0; i < 100; ++i)
        t = dram.access(static_cast<Addr>(i) * 64, i % 2 == 0, t).done_ns;
    EXPECT_EQ(dram.totalAccesses(), 100u);
    const ChannelStats s = dram.aggregateStats();
    EXPECT_EQ(s.reads, 50u);
    EXPECT_EQ(s.writes, 50u);
    EXPECT_NEAR(s.bus_busy_ns, 100 * dram.config().burstNs(), 1e-6);
}

TEST(Ddr4, CompletionTimesMonotonicPerBank)
{
    Ddr4 dram(quietConfig());
    double prev = 0.0;
    for (int i = 0; i < 50; ++i) {
        const DramCompletion c = dram.access(0, false, prev);
        EXPECT_GT(c.done_ns, prev);
        prev = c.done_ns;
    }
}

TEST(Ddr4, SequentialBeatsRandomLatency)
{
    Ddr4 seq(quietConfig()), rnd(quietConfig());
    double t = 0.0, seq_total = 0.0;
    for (int i = 0; i < 200; ++i) {
        const auto c = seq.access(static_cast<Addr>(i) * 64, false, t);
        seq_total += c.done_ns - t;
        t = c.done_ns;
    }
    std::uint64_t x = 123456789;
    t = 0.0;
    double rnd_total = 0.0;
    for (int i = 0; i < 200; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto c = rnd.access((x % (1ULL << 28)) & ~63ULL, false, t);
        rnd_total += c.done_ns - t;
        t = c.done_ns;
    }
    EXPECT_LT(seq_total, rnd_total);
}

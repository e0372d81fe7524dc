/**
 * @file
 * DRAM model tests: address decode, row-buffer state machine, timing
 * ordering (hit < closed < conflict), bus serialization, refresh, and
 * the FR-FCFS cap.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

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

TEST(Ddr4, TimingDigestPinned)
{
    // A seeded read/write stream over two channels, four ranks and all
    // banks, mixing row-hit streaks (which run into the FR-FCFS cap),
    // row conflicts, idle gaps past the 500 ns row timeout and a short
    // refresh interval, digested bit for bit.  The pinned value was
    // computed with the out-of-line (pre-inlining) DRAM model, so any
    // change to a completion time, outcome or statistic fails here.
    DramConfig cfg;
    cfg.channels = 2;
    cfg.ranks = 4;
    cfg.tREFI_ns = 2000.0;
    Ddr4 dram(cfg);

    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto mix = [&digest](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            digest ^= (v >> (8 * b)) & 0xff;
            digest *= 0x100000001b3ULL;
        }
    };

    // A conflict on the row the bank last served can only come from the
    // FR-FCFS cap, so the stream counts those by decoding each address.
    const AddressMapper mapper(cfg);
    std::vector<std::uint64_t> last_row(
        static_cast<std::size_t>(cfg.channels) * cfg.ranks *
            cfg.banks_per_rank,
        ~0ULL);
    unsigned outcomes[3] = {0, 0, 0};
    unsigned refresh_waits = 0, capped = 0;
    Addr streak = 0;
    double t = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t r = next();
        Addr a;
        switch (r % 8) {
          case 0:
          case 1:
          case 2:
          case 3: // continue a sequential streak: row hits
            streak += 64;
            a = streak;
            break;
          case 4:
          case 5: // one of a few hot rows: hits and conflicts
            a = ((r >> 8) % 16) * (Addr{1} << 22) + ((r >> 16) % 4) * 64;
            break;
          default: // anywhere in 4 GiB
            a = ((r >> 8) % (Addr{1} << 26)) * 64;
            streak = a;
            break;
        }
        const bool is_write = (r >> 40) % 3 == 0;
        const std::uint64_t gap = (r >> 44) % 32;
        if (gap < 24)
            t += static_cast<double>(gap % 8) * 1.25;
        else if (gap < 31)
            t += 40.0 * static_cast<double>(gap - 21);
        else
            t += 700.0; // past the row timeout
        const DramCompletion c = dram.access(a, is_write, t);
        mix(std::bit_cast<std::uint64_t>(c.done_ns));
        mix(static_cast<std::uint64_t>(c.outcome));
        ++outcomes[static_cast<unsigned>(c.outcome)];
        refresh_waits += c.done_ns - t >= cfg.tRFC_ns;
        const DramCoord coord = mapper.decode(a);
        std::uint64_t &row = last_row[coord.flatBank(cfg)];
        capped += c.outcome == RowOutcome::Conflict && row == coord.row;
        row = coord.row;
        if ((r >> 50) % 4 == 0)
            t = c.done_ns; // a dependent access waits for the data
    }
    const ChannelStats s = dram.aggregateStats();
    for (const std::uint64_t v :
         {s.reads, s.writes, s.row_hits, s.row_closed, s.row_conflicts,
          std::bit_cast<std::uint64_t>(s.bus_busy_ns),
          dram.totalAccesses(),
          std::bit_cast<std::uint64_t>(dram.busBacklogNs(t))})
        mix(v);

    // The stream reaches every path it is meant to guard.
    EXPECT_GT(outcomes[static_cast<unsigned>(RowOutcome::Hit)], 1000u);
    EXPECT_GT(outcomes[static_cast<unsigned>(RowOutcome::Closed)], 1000u);
    EXPECT_GT(outcomes[static_cast<unsigned>(RowOutcome::Conflict)], 1000u);
    EXPECT_GT(refresh_waits, 100u);
    EXPECT_GT(capped, 100u);
    EXPECT_EQ(digest, 0x1b2a30e301766976ULL) << std::hex << digest;
}

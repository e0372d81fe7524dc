/**
 * @file
 * OoO CPU-proxy tests: retire bandwidth, window-limited overlap, MSHR
 * limits, and stall semantics.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/cpu_model.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

using namespace rmcc::sim;

TEST(Cpu, PeakRetireRate)
{
    CpuModel cpu; // 3.2 GHz x 4-wide = 12.8 inst/ns
    for (int i = 0; i < 1280; ++i)
        cpu.advance(0);
    EXPECT_NEAR(cpu.now(), 1280.0 / 12.8, 1e-6);
    EXPECT_EQ(cpu.instructions(), 1280u);
}

TEST(Cpu, InstructionGapsAccumulate)
{
    CpuModel cpu;
    cpu.advance(9); // 10 instructions total
    EXPECT_EQ(cpu.instructions(), 10u);
}

TEST(Cpu, IndependentMissesOverlap)
{
    // Two misses of 100 ns each, close together: the window lets them
    // overlap, so total time is ~100 ns, not 200.
    CpuModel cpu;
    const double t1 = cpu.advance(0);
    cpu.recordLongLatency(t1 + 100.0);
    const double t2 = cpu.advance(0);
    cpu.recordLongLatency(t2 + 100.0);
    for (int i = 0; i < 50; ++i)
        cpu.advance(0);
    const double end = cpu.finish();
    EXPECT_LT(end, 120.0);
}

TEST(Cpu, WindowLimitSerializesDistantMisses)
{
    // A miss issued, then > ROB instructions, then the clock must have
    // waited for the miss before retiring the younger instructions.
    CpuConfig cfg;
    CpuModel cpu(cfg);
    const double t1 = cpu.advance(0);
    cpu.recordLongLatency(t1 + 500.0);
    // Advance well past the 192-entry window.
    for (unsigned i = 0; i < cfg.rob + 8; ++i)
        cpu.advance(0);
    EXPECT_GE(cpu.now(), t1 + 500.0);
}

TEST(Cpu, MshrLimitBoundsOutstanding)
{
    CpuConfig cfg;
    cfg.mshrs = 2;
    cfg.rob = 10000; // window never binds in this test
    CpuModel cpu(cfg);
    // Three long misses back-to-back: the third must wait for the first.
    cpu.recordLongLatency(1000.0);
    cpu.recordLongLatency(1000.0);
    cpu.advance(0);
    EXPECT_GE(cpu.now(), 1000.0);
}

TEST(Cpu, StallUntilMovesClockForwardOnly)
{
    CpuModel cpu;
    cpu.stallUntil(50.0);
    EXPECT_DOUBLE_EQ(cpu.now(), 50.0);
    cpu.stallUntil(10.0);
    EXPECT_DOUBLE_EQ(cpu.now(), 50.0);
}

TEST(Cpu, FinishDrainsAllOutstanding)
{
    CpuModel cpu;
    cpu.advance(0);
    cpu.recordLongLatency(300.0);
    cpu.recordLongLatency(700.0);
    EXPECT_DOUBLE_EQ(cpu.finish(), 700.0);
}

TEST(Cpu, MemoryBoundSlowerThanComputeBound)
{
    CpuModel compute, memory;
    for (int i = 0; i < 1000; ++i) {
        compute.advance(20);
        const double t = memory.advance(20);
        memory.recordLongLatency(t + 80.0);
    }
    EXPECT_GT(memory.finish(), compute.finish());
}

TEST(Cpu, AdvanceRunEqualsPerRecordAdvance)
{
    // Two cores see one seeded stream: bursts of long-latency ops (up to
    // 24 back to back, past the 16 MSHRs), then runs of records whose
    // gaps cross the 192-entry window and the ops' completion times.
    // One core takes each run in one advanceRun call, the other record
    // by record; clock and instruction count must agree bit for bit
    // after every step.
    CpuModel per_record, run;
    rmcc::util::Rng rng(2024);
    std::vector<rmcc::trace::Record> recs;
    std::uint64_t crossings = 0;
    for (int round = 0; round < 3000; ++round) {
        const unsigned ops = static_cast<unsigned>(rng.nextBelow(25));
        for (unsigned k = 0; k < ops; ++k) {
            const double issue = per_record.advance(0);
            ASSERT_EQ(run.advance(0), issue);
            const double done = issue + 5.0 + rng.nextDouble() * 400.0;
            per_record.recordLongLatency(done);
            run.recordLongLatency(done);
        }
        recs.assign(1 + rng.nextBelow(300), rmcc::trace::Record{});
        for (rmcc::trace::Record &r : recs)
            r.inst_gap = rng.nextBool(0.9) ? rng.nextBelow(8)
                                           : rng.nextBelow(1000);
        const double before = per_record.now();
        for (const rmcc::trace::Record &r : recs)
            per_record.advance(r.inst_gap);
        run.advanceRun(recs.data(), recs.size());
        ASSERT_EQ(run.now(), per_record.now()) << "round " << round;
        ASSERT_EQ(run.instructions(), per_record.instructions());
        // A run whose clock moved further than its instructions alone
        // would take waited at a gate.
        std::uint64_t insts = 0;
        for (const rmcc::trace::Record &r : recs)
            insts += r.inst_gap + 1;
        crossings += per_record.now() - before >
                     static_cast<double>(insts) / 12.8 + 1e-6;
        if (rng.nextBool(0.05)) {
            const double t = per_record.now() + rng.nextDouble() * 50.0;
            per_record.stallUntil(t);
            run.stallUntil(t);
        }
    }
    EXPECT_GT(crossings, 100u);
    EXPECT_EQ(run.finish(), per_record.finish());
}

namespace
{

/** Whether t_ns is a whole number of 2^-16 ns ticks. */
bool
wholeTicks(double t_ns)
{
    const double x = t_ns * 65536.0;
    return x == static_cast<double>(static_cast<std::uint64_t>(x));
}

/**
 * Drive two cores of one config through one seeded stream, the way
 * AdvanceRunEqualsPerRecordAdvance does, and require clock, instruction
 * count and outstanding ops to agree bit for bit after every run.
 * done_ns(issue) draws each op's completion time.  Returns how many runs
 * started on a whole tick count and how many of those ended off it (a
 * stall to a non-dyadic time moved the run to the double loop).
 */
template <typename DoneFn>
std::pair<std::uint64_t, std::uint64_t>
checkRunsAgainstAdvance(const CpuConfig &cfg, std::uint64_t seed,
                        DoneFn done_ns)
{
    CpuModel per_record(cfg), run(cfg);
    const double ns_per_inst = 1.0 / (cfg.freq_ghz * cfg.width);
    rmcc::util::Rng rng(seed);
    std::vector<rmcc::trace::Record> recs;
    std::uint64_t on_ticks = 0, switched = 0;
    for (int round = 0; round < 3000; ++round) {
        const unsigned ops = static_cast<unsigned>(rng.nextBelow(25));
        for (unsigned k = 0; k < ops; ++k) {
            const double issue = per_record.advance(0);
            EXPECT_EQ(run.advance(0), issue);
            const double done = done_ns(rng, issue);
            per_record.recordLongLatency(done);
            run.recordLongLatency(done);
        }
        // Mostly long runs (the whole-tick path's), some short ones.
        recs.assign(1 + rng.nextBelow(rng.nextBool(0.8) ? 300 : 16),
                    rmcc::trace::Record{});
        for (rmcc::trace::Record &r : recs)
            r.inst_gap = rng.nextBool(0.9) ? rng.nextBelow(8)
                                           : rng.nextBelow(1000);
        if (rng.nextBool(0.2)) {
            // Drain, then one op completing exactly as the run's last
            // record retires: the run must end with it retired, as
            // advance() retires it.
            EXPECT_EQ(run.finish(), per_record.finish());
            std::uint64_t steps = 0;
            for (const rmcc::trace::Record &r : recs)
                steps += r.inst_gap + 1;
            const double done = per_record.now() +
                                static_cast<double>(steps) * ns_per_inst;
            per_record.recordLongLatency(done);
            run.recordLongLatency(done);
        }
        const bool started_whole = wholeTicks(run.now());
        for (const rmcc::trace::Record &r : recs)
            per_record.advance(r.inst_gap);
        run.advanceRun(recs.data(), recs.size());
        EXPECT_EQ(run.now(), per_record.now()) << "round " << round;
        EXPECT_EQ(run.instructions(), per_record.instructions())
            << "round " << round;
        EXPECT_EQ(run.outstanding(), per_record.outstanding())
            << "round " << round;
        if (::testing::Test::HasFailure())
            break;
        on_ticks += started_whole;
        switched += started_whole && !wholeTicks(run.now());
        if (rng.nextBool(0.05)) {
            // Stalls to whole 2^-8 ns times (an MC overflow's, say) put
            // the clock back on ticks.
            const double t =
                std::ceil(per_record.now() * 256.0) / 256.0 +
                static_cast<double>(rng.nextBelow(50 * 256)) / 256.0;
            per_record.stallUntil(t);
            run.stallUntil(t);
        }
    }
    EXPECT_EQ(run.finish(), per_record.finish());
    return {on_ticks, switched};
}

} // namespace

TEST(Cpu, IntegerTickRunsEqualPerRecordAdvance)
{
    // Dyadic completion times: multiples of 2^-8 ns, half of them on the
    // 5/64 ns instruction grid so runs often land exactly on a gate.
    const auto dyadic = [](rmcc::util::Rng &rng, double issue) {
        return rng.nextBool()
                   ? issue + static_cast<double>(rng.nextBelow(400 * 256)) /
                                 256.0
                   : issue + static_cast<double>(rng.nextBelow(5000)) *
                                 (5.0 / 64.0);
    };
    const auto [dyadic_on, dyadic_switched] =
        checkRunsAgainstAdvance(CpuConfig(), 24, dyadic);
    EXPECT_EQ(dyadic_on, 3000u); // every run starts on whole ticks
    EXPECT_EQ(dyadic_switched, 0u);

    // A mixed stream: one op in 50 completes at a non-dyadic time, so a
    // stall inside a run moves it to the double loop mid-run; later
    // stalls to dyadic times bring the clock back onto ticks.
    const auto mixed = [&](rmcc::util::Rng &rng, double issue) {
        return rng.nextBool(0.02) ? issue + 5.0 + rng.nextDouble() * 400.0
                                   : dyadic(rng, issue);
    };
    const auto [mixed_on, mixed_switched] =
        checkRunsAgainstAdvance(CpuConfig(), 25, mixed);
    EXPECT_GT(mixed_on, 1000u);
    EXPECT_GT(mixed_switched, 20u);

    // At 3.3 GHz an instruction is 1/13.2 ns, not a whole tick count:
    // every run takes the double loop, with the same results.
    CpuConfig odd;
    odd.freq_ghz = 3.3;
    EXPECT_LT(checkRunsAgainstAdvance(odd, 26, dyadic).first, 100u);
}

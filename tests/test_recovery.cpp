/**
 * @file
 * Recovery-subsystem tests: the RecoveryPolicy storm/degraded state
 * machine and its env knobs, memo-table quarantine semantics (including
 * the security-register rollback rule), per-mode storm invariants (a
 * detected fault is recovered or refused, never served), and the
 * zero-cost guarantee of an armed-but-idle policy.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "core/rmcc_engine.hpp"
#include "fault/storm.hpp"
#include "mc/recovery.hpp"
#include "sim/experiments.hpp"

using namespace rmcc;
using namespace rmcc::mc;

namespace
{

RecoveryConfig
fullConfig(std::uint64_t window, std::uint64_t threshold,
           std::uint64_t residency)
{
    RecoveryConfig cfg;
    cfg.mode = RecoveryMode::Full;
    cfg.storm_window_reads = window;
    cfg.storm_threshold = threshold;
    cfg.degraded_residency_reads = residency;
    return cfg;
}

} // namespace

TEST(RecoveryPolicy, OffModeIsInert)
{
    RecoveryPolicy p;
    EXPECT_FALSE(p.active());
    EXPECT_FALSE(p.full());
    EXPECT_FALSE(p.degraded());
    EXPECT_FALSE(p.onSecureRead());
    EXPECT_EQ(p.stats().detections, 0u);
}

TEST(RecoveryPolicy, RetryModeNeverDegrades)
{
    RecoveryConfig cfg = fullConfig(8, 2, 16);
    cfg.mode = RecoveryMode::Retry;
    RecoveryPolicy p(cfg);
    EXPECT_TRUE(p.active());
    EXPECT_FALSE(p.full());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(p.onDetection());
    EXPECT_FALSE(p.degraded());
    EXPECT_EQ(p.stats().detections, 100u);
    EXPECT_EQ(p.stats().degraded_entries, 0u);
}

TEST(RecoveryPolicy, StormThresholdTripsDegradedOnce)
{
    RecoveryPolicy p(fullConfig(64, 3, 10));
    EXPECT_FALSE(p.onDetection());
    EXPECT_FALSE(p.onDetection());
    EXPECT_FALSE(p.degraded());
    EXPECT_TRUE(p.onDetection()); // third within the window: enter
    EXPECT_TRUE(p.degraded());
    EXPECT_EQ(p.stats().degraded_entries, 1u);

    // Residency decays per read; the draining read reports the exit.
    for (int i = 0; i < 9; ++i) {
        EXPECT_FALSE(p.onSecureRead());
        EXPECT_TRUE(p.degraded());
    }
    EXPECT_TRUE(p.onSecureRead());
    EXPECT_FALSE(p.degraded());
    EXPECT_EQ(p.stats().degraded_reads, 10u);
}

TEST(RecoveryPolicy, ReArmWhileDegradedExtendsWithoutNewEntry)
{
    RecoveryPolicy p(fullConfig(64, 2, 10));
    p.onDetection();
    EXPECT_TRUE(p.onDetection()); // enter
    for (int i = 0; i < 5; ++i)
        p.onSecureRead(); // 5 reads of residency consumed
    p.onDetection();
    EXPECT_FALSE(p.onDetection()); // re-trip: extend, not a new entry
    EXPECT_EQ(p.stats().degraded_entries, 1u);
    // The stay was re-armed to the full residency, not the remainder.
    for (int i = 0; i < 9; ++i)
        EXPECT_FALSE(p.onSecureRead());
    EXPECT_TRUE(p.onSecureRead());
    EXPECT_FALSE(p.degraded());
}

TEST(RecoveryPolicy, WindowBoundaryForgetsOldDetections)
{
    RecoveryPolicy p(fullConfig(4, 2, 10));
    p.onDetection();
    for (int i = 0; i < 4; ++i)
        p.onSecureRead(); // window rolls: the count resets
    EXPECT_FALSE(p.onDetection()); // 1st of the new window, not 2nd
    EXPECT_FALSE(p.degraded());
}

TEST(RecoveryStats, MttrAveragesRefetchesOverDetections)
{
    RecoveryStats s;
    EXPECT_DOUBLE_EQ(s.mttrReads(), 0.0);
    s.detections = 4;
    s.refetch_attempts = 6;
    EXPECT_DOUBLE_EQ(s.mttrReads(), 2.5); // the read itself + 6/4
    s.recovered_refetch = 2;
    s.recovered_reconstruct = 1;
    s.recovered_quarantine = 1;
    EXPECT_EQ(s.recovered(), 4u);
}

TEST(RecoveryConfigEnv, DefaultsAreOffAndCalibrated)
{
    unsetenv("RMCC_RECOVERY");
    unsetenv("RMCC_RECOVERY_RETRIES");
    unsetenv("RMCC_RECOVERY_STORM_WINDOW");
    unsetenv("RMCC_RECOVERY_STORM_THRESHOLD");
    unsetenv("RMCC_RECOVERY_DEGRADED_READS");
    const RecoveryConfig cfg = recoveryConfigFromEnv();
    EXPECT_EQ(cfg.mode, RecoveryMode::Off);
    EXPECT_EQ(cfg.max_refetch, 3u);
    EXPECT_EQ(cfg.storm_window_reads, 512u);
    EXPECT_EQ(cfg.storm_threshold, 32u);
    EXPECT_EQ(cfg.degraded_residency_reads, 4096u);
}

TEST(RecoveryConfigEnv, ParsesModesAndKnobs)
{
    setenv("RMCC_RECOVERY", "retry", 1);
    EXPECT_EQ(recoveryConfigFromEnv().mode, RecoveryMode::Retry);
    setenv("RMCC_RECOVERY", "full", 1);
    setenv("RMCC_RECOVERY_RETRIES", "5", 1);
    setenv("RMCC_RECOVERY_STORM_WINDOW", "128", 1);
    setenv("RMCC_RECOVERY_STORM_THRESHOLD", "9", 1);
    setenv("RMCC_RECOVERY_DEGRADED_READS", "777", 1);
    const RecoveryConfig cfg = recoveryConfigFromEnv();
    EXPECT_EQ(cfg.mode, RecoveryMode::Full);
    EXPECT_EQ(cfg.max_refetch, 5u);
    EXPECT_EQ(cfg.storm_window_reads, 128u);
    EXPECT_EQ(cfg.storm_threshold, 9u);
    EXPECT_EQ(cfg.degraded_residency_reads, 777u);
    unsetenv("RMCC_RECOVERY");
    unsetenv("RMCC_RECOVERY_RETRIES");
    unsetenv("RMCC_RECOVERY_STORM_WINDOW");
    unsetenv("RMCC_RECOVERY_STORM_THRESHOLD");
    unsetenv("RMCC_RECOVERY_DEGRADED_READS");
}

TEST(RecoveryConfigEnv, GarbageModeThrows)
{
    setenv("RMCC_RECOVERY", "maybe", 1);
    EXPECT_THROW(recoveryConfigFromEnv(), std::runtime_error);
    unsetenv("RMCC_RECOVERY");
}

TEST(MemoQuarantine, QuarantinedValueRefusedUntilEpochEnd)
{
    core::MemoTable t;
    t.insertGroup(100);
    EXPECT_EQ(t.lookupRead(103), core::MemoHit::GroupHit);
    EXPECT_TRUE(t.quarantineValue(103));
    EXPECT_TRUE(t.isQuarantined(103));
    EXPECT_EQ(t.quarantinedCount(), 1u);
    // The covering group is invalidated (every pad it cached is suspect)
    // and the poisoned value itself is refused even if re-learned.
    EXPECT_EQ(t.validGroups(), 0u);
    for (addr::CounterValue v = 100; v < 108; ++v)
        EXPECT_EQ(t.lookupRead(v), core::MemoHit::Miss) << v;
    t.insertGroup(100);
    EXPECT_EQ(t.lookupRead(103), core::MemoHit::Miss);
    EXPECT_EQ(t.lookupRead(104), core::MemoHit::GroupHit);
    // Epoch reselection re-derives every pad from scratch: honest again.
    t.endOfEpoch();
    EXPECT_EQ(t.quarantinedCount(), 0u);
    EXPECT_FALSE(t.isQuarantined(103));
}

TEST(MemoQuarantine, RecentOnlyValueIsDropped)
{
    core::MemoConfig cfg;
    cfg.groups = 1;
    core::MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200); // 100 -> shadow
    t.lookupRead(100);  // shadow value: memoized as MRU recent
    EXPECT_EQ(t.lookupRead(100), core::MemoHit::RecentHit);
    EXPECT_TRUE(t.quarantineValue(100));
    EXPECT_EQ(t.lookupRead(100), core::MemoHit::Miss);
}

TEST(MemoQuarantine, UnknownValueStillBlacklisted)
{
    core::MemoTable t;
    t.insertGroup(100);
    EXPECT_FALSE(t.quarantineValue(500)); // nothing to drop...
    EXPECT_TRUE(t.isQuarantined(500));    // ...but refused from now on
    EXPECT_EQ(t.lookupRead(103), core::MemoHit::GroupHit); // others live
}

TEST(MemoQuarantine, EngineQuarantineAppliesRollbackRule)
{
    // The security-register rollback rule: after a quarantine the
    // candidate monitor must be re-armed from the post-quarantine table
    // maximum, so a poisoned value cannot have ratcheted the threshold
    // future promotions are measured against.
    ctr::IntegrityTree tree(ctr::SchemeKind::Morphable, 1024);
    core::RmccConfig cfg;
    cfg.monitor.trigger_reads = 50;
    cfg.budget.epoch_accesses = 1000;
    cfg.budget.initial_pool_accesses = 1e6;
    core::RmccEngine engine(cfg, tree);
    engine.table(0).insertGroup(100);
    engine.table(0).insertGroup(300);
    EXPECT_EQ(engine.table(0).maxInTable(), 307u);
    EXPECT_TRUE(engine.quarantineMemoValue(0, 305));
    // The group holding the table max is gone; the surviving group
    // defines the new (lower) maximum the monitor re-armed around.
    EXPECT_EQ(engine.table(0).maxInTable(), 107u);
    EXPECT_FALSE(engine.quarantineMemoValue(7, 305)); // no such level
}

TEST(RecoveryStorm, PerModeInvariantsHold)
{
    using fault::StormConfig;
    using fault::StormPlan;
    using fault::StormStats;
    for (const RecoveryMode mode :
         {RecoveryMode::Off, RecoveryMode::Retry, RecoveryMode::Full}) {
        StormPlan plan;
        plan.rate = 0.01;
        plan.ops = 6000;
        plan.seed = 0xbeef;
        StormConfig cfg;
        cfg.seed = 3;
        cfg.recovery.mode = mode;
        const StormStats s = fault::runRecoveryStorm(plan, cfg);
        const RecoveryStats &r = s.recovery;
        SCOPED_TRACE(recoveryModeName(mode));

        // The detection contract survives every policy: no fault is
        // ever served as good data without a verdict.
        EXPECT_GT(s.faults.injected, 0u);
        EXPECT_EQ(s.faults.silent(), 0u);
        EXPECT_EQ(s.faults.unexpected_failures, 0u);

        if (mode == RecoveryMode::Off) {
            EXPECT_EQ(r.detections, 0u); // policy inactive: not consulted
            EXPECT_EQ(r.recovered(), 0u);
            continue;
        }
        // Active policy: the controller saw exactly what the oracle
        // classified, and every detection was healed or refused.
        EXPECT_EQ(r.detections, s.faults.detected());
        EXPECT_EQ(r.recovered() + r.unrecoverable, r.detections);
        EXPECT_GT(r.recovered_refetch, 0u); // transients heal in stage 1
        EXPECT_GE(r.mttrReads(), 1.0);
        if (mode == RecoveryMode::Retry) {
            EXPECT_EQ(r.recovered_reconstruct, 0u);
            EXPECT_EQ(r.values_quarantined, 0u);
            EXPECT_EQ(r.degraded_entries, 0u);
        } else {
            EXPECT_GT(r.recovered_reconstruct, 0u);
        }
    }
}

TEST(RecoveryStorm, ArmedIdlePolicyIsFreeOnCleanTraffic)
{
    // Full recovery on a fault-free cell must not change a single stat:
    // recovery only acts after a detection, and there are none.
    const auto *w = wl::findWorkload("omnetpp");
    std::vector<sim::NamedConfig> configs = {
        sim::rmccConfig(sim::SimMode::Timing)};
    configs[0].cfg.trace_records = 5000;
    configs[0].cfg.warmup_records = 2500;

    const sim::SuiteRow off = sim::runWorkload(*w, configs);
    configs[0].cfg.recovery.mode = RecoveryMode::Full;
    const sim::SuiteRow armed = sim::runWorkload(*w, configs);

    ASSERT_TRUE(off.allOk());
    ASSERT_TRUE(armed.allOk());
    EXPECT_EQ(armed.results[0].instructions, off.results[0].instructions);
    EXPECT_EQ(armed.results[0].elapsed_ns, off.results[0].elapsed_ns);
    EXPECT_EQ(armed.results[0].stats.all(), off.results[0].stats.all());
}

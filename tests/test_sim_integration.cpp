/**
 * @file
 * End-to-end integration tests: functional and timing simulations over
 * real workload traces, cross-config orderings (non-secure fastest,
 * RMCC >= Morphable on irregular workloads), statistic conservation, and
 * determinism.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "sim/experiments.hpp"
#include "sim/rig.hpp"

using namespace rmcc;
using namespace rmcc::sim;

namespace
{

/** Small-but-real experiment shape to keep the test quick. */
void
shrink(SystemConfig &cfg)
{
    cfg.trace_records = 150000;
    cfg.warmup_records = 75000;
    // At this miniature scale the default lifetime-warmup grant cannot
    // relevel a full working set; give the emulated prior lifetime
    // enough budget to converge, as the full-scale defaults do.
    cfg.precondition_budget_fraction = 30.0;
}

} // namespace

TEST(Integration, FunctionalStatsConservation)
{
    NamedConfig nc = baselineConfig(SimMode::Functional,
                                    ctr::SchemeKind::Morphable);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    const SimResult r = runOne(w->name, trace, nc);
    EXPECT_DOUBLE_EQ(r.stats.get("mc.reads"), r.stats.get("sim.llc_misses"));
    EXPECT_DOUBLE_EQ(r.stats.get("ctr.l0_hit") + r.stats.get("ctr.l0_miss"),
                     r.stats.get("mc.reads"));
    EXPECT_GT(r.counterMissRate(), 0.5); // canneal thrashes counters
    EXPECT_LE(r.counterMissRate(), 1.0);
}

TEST(Integration, TimingOrderingNonSecureFastest)
{
    std::vector<NamedConfig> configs = {
        nonSecureConfig(SimMode::Timing),
        baselineConfig(SimMode::Timing, ctr::SchemeKind::SC64),
        baselineConfig(SimMode::Timing, ctr::SchemeKind::Morphable),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    const double nonsecure = row.results[0].perf();
    const double sc64 = row.results[1].perf();
    const double morph = row.results[2].perf();
    EXPECT_GT(nonsecure, morph);
    EXPECT_GT(nonsecure, sc64);
    // Morphable's 128-block coverage beats SC-64 on irregular workloads.
    EXPECT_GE(morph, sc64 * 0.98);
}

TEST(Integration, RmccBeatsMorphableOnCanneal)
{
    std::vector<NamedConfig> configs = {
        baselineConfig(SimMode::Timing, ctr::SchemeKind::Morphable),
        rmccConfig(SimMode::Timing),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    EXPECT_GT(row.results[1].perf(), row.results[0].perf());
    EXPECT_LT(row.results[1].avgReadLatencyNs(),
              row.results[0].avgReadLatencyNs());
    EXPECT_GT(row.results[1].acceleratedMissRate(), 0.8);
}

TEST(Integration, RmccMemoHitRateHighAfterLifetimeWarmup)
{
    NamedConfig nc = rmccConfig(SimMode::Functional);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    const SimResult r = runOne(w->name, trace, nc);
    EXPECT_GT(r.memoHitRateAll(), 0.8);
    EXPECT_GT(r.stats.get("rmcc.avg_coverage_l0"), 100.0);
}

TEST(Integration, RmccTrafficOverheadBounded)
{
    std::vector<NamedConfig> configs = {
        baselineConfig(SimMode::Functional, ctr::SchemeKind::Morphable),
        rmccConfig(SimMode::Functional),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    const double overhead = row.results[1].dramAccesses() /
                                row.results[0].dramAccesses() -
                            1.0;
    // 1% budget per level plus residual convergence: well under 10%.
    EXPECT_LT(overhead, 0.10);
    EXPECT_GT(overhead, -0.10);
}

TEST(Integration, DeterministicAcrossRuns)
{
    NamedConfig nc = rmccConfig(SimMode::Timing);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("omnetpp");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    const SimResult a = runOne(w->name, trace, nc);
    const SimResult b = runOne(w->name, trace, nc);
    EXPECT_DOUBLE_EQ(a.elapsed_ns, b.elapsed_ns);
    EXPECT_DOUBLE_EQ(a.dramAccesses(), b.dramAccesses());
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Integration, HugePagesNearlyEliminateTlbMisses)
{
    NamedConfig small = baselineConfig(SimMode::Functional,
                                       ctr::SchemeKind::Morphable);
    shrink(small.cfg);
    small.cfg.page_mode = addr::PageMode::Small4K;
    NamedConfig huge = small;
    huge.cfg.page_mode = addr::PageMode::Huge2M;
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, small.cfg.trace_records, 42);
    const SimResult rs = runOne(w->name, trace, small);
    const SimResult rh = runOne(w->name, trace, huge);
    EXPECT_GT(rs.stats.get("tlb.misses"),
              10.0 * (rh.stats.get("tlb.misses") + 1.0));
}

TEST(Integration, SystemMaxGrowsModestlyUnderRmcc)
{
    // Sec IV-D2: RMCC raises the maximum counter value faster than the
    // baseline, but only modestly (paper: +24% geomean over lifetimes).
    std::vector<NamedConfig> configs = {
        baselineConfig(SimMode::Functional, ctr::SchemeKind::Morphable),
        rmccConfig(SimMode::Functional),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    const double base_max = row.results[0].stats.get("ctr.observed_max");
    const double rmcc_max = row.results[1].stats.get("ctr.observed_max");
    EXPECT_GE(rmcc_max, base_max * 0.99);
    EXPECT_LT(rmcc_max, base_max * 3.0);
}

TEST(Integration, Table1DescribeMentionsKeyRows)
{
    const SystemConfig cfg = SystemConfig::timingDefault();
    const std::string text = cfg.describe();
    for (const char *key :
         {"192 entry ROB", "1536 entries", "Counter Cache", "AES latency",
          "FR-FCFS", "XOR-based"})
        EXPECT_NE(text.find(key), std::string::npos) << key;
}

TEST(Integration, RegistryLookupsIndependentOfTraceLength)
{
    // The hot loop must not consult the string-keyed stat registry per
    // record: after a warm-up run, a 2x longer trace resolves exactly as
    // many names as the short one.
    NamedConfig nc = rmccConfig(SimMode::Timing);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const auto short_trace =
        wl::generateTrace(*w, nc.cfg.trace_records, 42);
    NamedConfig nc_long = nc;
    nc_long.cfg.trace_records = 2 * nc.cfg.trace_records;
    nc_long.cfg.warmup_records = 2 * nc.cfg.warmup_records;
    const auto long_trace =
        wl::generateTrace(*w, nc_long.cfg.trace_records, 42);

    runTiming(w->name, short_trace, nc.cfg); // warm lazy registrations

    const std::uint64_t base0 = util::StatSet::stringLookups();
    runTiming(w->name, short_trace, nc.cfg);
    const std::uint64_t short_lookups =
        util::StatSet::stringLookups() - base0;

    const std::uint64_t base1 = util::StatSet::stringLookups();
    runTiming(w->name, long_trace, nc_long.cfg);
    const std::uint64_t long_lookups =
        util::StatSet::stringLookups() - base1;

    EXPECT_EQ(short_lookups, long_lookups)
        << "string-keyed stat lookups must not scale with trace length";
}

// ---------------------------------------------------------------------------
// Counter-tree leases: a thread reuses its last cell's tree
// ---------------------------------------------------------------------------

namespace
{

/** Every simulated number of two results is equal. */
void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.stats.all(), b.stats.all()) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.elapsed_ns, b.elapsed_ns) << what;
}

/** nc's result on a new thread, whose tree slot is empty. */
SimResult
runOnFreshThread(const wl::Workload &w, const trace::TraceSource &trace,
                 const NamedConfig &nc)
{
    SimResult r;
    std::thread t([&] { r = runOne(w.name, trace, nc); });
    t.join();
    return r;
}

/** canneal at a length where every cell writes counters back. */
NamedConfig
leaseCell(const NamedConfig &base)
{
    NamedConfig nc = base;
    shrink(nc.cfg);
    return nc;
}

} // namespace

TEST(TreeLease, ReusedTreeGivesTheFreshResult)
{
    // One RMCC cell three times on this thread, interleaved with a
    // Morphable cell (same tree key: it restores the RMCC cell's tree)
    // and an SC-64 cell (another key: the tree is rebuilt).  Every run
    // must equal the same cell on a fresh thread.
    const NamedConfig rmcc = leaseCell(rmccConfig(SimMode::Timing));
    const NamedConfig morph = leaseCell(
        baselineConfig(SimMode::Timing, ctr::SchemeKind::Morphable));
    const NamedConfig sc64 = leaseCell(
        baselineConfig(SimMode::Functional, ctr::SchemeKind::SC64));
    const auto *w = wl::findWorkload("canneal");
    const auto trace =
        wl::generateTrace(*w, rmcc.cfg.trace_records, rmcc.cfg.seed);
    const SimResult want_rmcc = runOnFreshThread(*w, trace, rmcc);
    const SimResult want_morph = runOnFreshThread(*w, trace, morph);
    const SimResult want_sc64 = runOnFreshThread(*w, trace, sc64);
    EXPECT_GT(want_rmcc.stats.get("mc.writes"), 0.0);

    for (int round = 0; round < 3; ++round) {
        const std::string at = "round " + std::to_string(round);
        expectSameResult(runOne(w->name, trace, rmcc), want_rmcc,
                         "RMCC " + at);
        expectSameResult(runOne(w->name, trace, morph), want_morph,
                         "Morphable " + at);
        if (round == 1)
            expectSameResult(runOne(w->name, trace, sc64), want_sc64,
                             "SC-64 " + at);
    }
}

TEST(TreeLease, CancelledCellLeavesNoTrace)
{
    // A cell cancelled mid-run (RMCC_CELL_TIMEOUT_MS, with the cell hook
    // stalling until just before the deadline) hands back a tree it has
    // partly updated; the next cell with the same key must restore it.
    NamedConfig nc = leaseCell(rmccConfig(SimMode::Timing));
    nc.cfg.trace_records = 400000;
    nc.cfg.warmup_records = 200000;
    const auto *w = wl::findWorkload("canneal");
    const auto trace =
        wl::generateTrace(*w, nc.cfg.trace_records, nc.cfg.seed);
    const SimResult want = runOnFreshThread(*w, trace, nc);

    setenv("RMCC_CELL_TIMEOUT_MS", "60", 1);
    detail::cell_fault_hook = [](const std::string &, const std::string &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };
    const auto [cancelled, status] = runCellGuarded(w->name, trace, nc);
    detail::cell_fault_hook = nullptr;
    unsetenv("RMCC_CELL_TIMEOUT_MS");
    EXPECT_EQ(status.state, CellState::TimedOut);
    EXPECT_EQ(cancelled.instructions, 0u) << "the cell ran to its end";

    expectSameResult(runOne(w->name, trace, nc), want, "after cancel");
}

TEST(TreeLease, TwoRigsOnOneThreadAreBothFresh)
{
    // The first rig takes this thread's kept tree and restores it, the
    // second builds its own; both must hold the initial tree.  Whichever
    // ends last stays in the slot, even after the other was updated, and
    // the next cell must still see the initial tree.
    const NamedConfig nc = leaseCell(rmccConfig(SimMode::Timing));
    const auto *w = wl::findWorkload("canneal");
    const auto trace =
        wl::generateTrace(*w, nc.cfg.trace_records, nc.cfg.seed);
    const SimResult want = runOnFreshThread(*w, trace, nc);

    for (const bool first_ends_first : {true, false}) {
        (void)runOne(w->name, trace, nc); // leaves a dirty tree kept
        auto a = std::make_unique<detail::SimRig>(nc.cfg);
        auto b = std::make_unique<detail::SimRig>(nc.cfg);
        ASSERT_NE(&a->tree, &b->tree);
        EXPECT_EQ(a->init_max, b->init_max);
        const ctr::CounterScheme &la = a->tree.level(0);
        const ctr::CounterScheme &lb = b->tree.level(0);
        for (std::uint64_t i = 0; i < la.entities(); i += 97)
            ASSERT_EQ(la.read(i), lb.read(i)) << "entity " << i;
        // Dirty both, then end them in either order.
        for (auto *rig : {a.get(), b.get()}) {
            ctr::CounterScheme &l0 = rig->tree.level(0);
            for (std::uint64_t i = 0; i < l0.entities(); i += 4099)
                l0.write(i, l0.read(i) + 50000);
        }
        if (first_ends_first) {
            a.reset();
            b.reset();
        } else {
            b.reset();
            a.reset();
        }
        expectSameResult(runOne(w->name, trace, nc), want,
                         first_ends_first ? "a then b" : "b then a");
    }
}

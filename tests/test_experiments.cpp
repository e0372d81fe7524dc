/**
 * @file
 * Experiment-harness tests: the standard configuration builders, derived
 * metrics of SimResult, the RMCC_FAST scaler, and the suite runner's
 * trace sharing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "sim/experiments.hpp"
#include "util/cancel.hpp"

using namespace rmcc;
using namespace rmcc::sim;

TEST(Configs, NonSecureDisablesProtection)
{
    const NamedConfig nc = nonSecureConfig(SimMode::Timing);
    EXPECT_FALSE(nc.cfg.secure);
    EXPECT_EQ(nc.label, "non-secure");
    EXPECT_EQ(nc.cfg.mode, SimMode::Timing);
}

TEST(Configs, BaselineCarriesSchemeName)
{
    const NamedConfig nc =
        baselineConfig(SimMode::Functional, ctr::SchemeKind::SC64);
    EXPECT_TRUE(nc.cfg.secure);
    EXPECT_FALSE(nc.cfg.rmcc);
    EXPECT_EQ(nc.label, "SC-64");
    EXPECT_EQ(nc.cfg.mode, SimMode::Functional);
}

TEST(Configs, RmccOnTopOfMorphable)
{
    const NamedConfig nc = rmccConfig(SimMode::Timing);
    EXPECT_TRUE(nc.cfg.rmcc);
    EXPECT_EQ(nc.cfg.scheme, ctr::SchemeKind::Morphable);
    EXPECT_EQ(nc.label, "RMCC");
}

TEST(Configs, PresetsDifferAsInPaper)
{
    const SystemConfig timing = SystemConfig::timingDefault();
    const SystemConfig pintool = SystemConfig::functionalDefault();
    EXPECT_EQ(timing.counter_cache_bytes, 128u * 1024);
    EXPECT_EQ(pintool.counter_cache_bytes, 32u * 1024);
    EXPECT_EQ(timing.llc.size_bytes, 8ULL * 1024 * 1024);
    EXPECT_EQ(pintool.llc.size_bytes, 2ULL * 1024 * 1024);
    EXPECT_DOUBLE_EQ(timing.lat.aes_ns, 15.0);
    EXPECT_DOUBLE_EQ(mc::LatencyConfig::aes256().aes_ns, 22.0);
}

TEST(Configs, FastEnvScalesTraces)
{
    std::vector<NamedConfig> configs = {rmccConfig(SimMode::Timing)};
    const std::size_t before = configs[0].cfg.trace_records;
    setenv("RMCC_FAST", "1", 1);
    applyFastEnv(configs);
    unsetenv("RMCC_FAST");
    EXPECT_EQ(configs[0].cfg.trace_records, before / 8);
}

TEST(Configs, FastEnvOffByDefault)
{
    unsetenv("RMCC_FAST");
    std::vector<NamedConfig> configs = {rmccConfig(SimMode::Timing)};
    const std::size_t before = configs[0].cfg.trace_records;
    applyFastEnv(configs);
    EXPECT_EQ(configs[0].cfg.trace_records, before);
}

TEST(SimResultT, DerivedMetrics)
{
    SimResult r;
    r.instructions = 1000;
    r.elapsed_ns = 500.0;
    r.stats.set("ctr.l0_miss", 30);
    r.stats.set("mc.reads", 100);
    r.stats.set("lat.read_sum_ns", 5000);
    r.stats.set("memo.l0_hit_on_miss", 24);
    r.stats.set("memo.l0_lookups_on_miss", 30);
    r.stats.set("memo.accelerated_misses", 27);
    r.stats.set("dram.total", 250);
    r.stats.set("tlb.misses", 10);
    EXPECT_DOUBLE_EQ(r.perf(), 2.0);
    EXPECT_DOUBLE_EQ(r.counterMissRate(), 0.3);
    EXPECT_DOUBLE_EQ(r.avgReadLatencyNs(), 50.0);
    EXPECT_DOUBLE_EQ(r.memoHitRateOnMiss(), 0.8);
    EXPECT_DOUBLE_EQ(r.acceleratedMissRate(), 0.9);
    EXPECT_DOUBLE_EQ(r.dramAccesses(), 250.0);
    EXPECT_DOUBLE_EQ(r.tlbMissPerLlcMiss(), 0.1);
}

TEST(SimResultT, EmptyResultIsSafe)
{
    const SimResult r;
    EXPECT_DOUBLE_EQ(r.perf(), 0.0);
    EXPECT_DOUBLE_EQ(r.counterMissRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.memoHitRateAll(), 0.0);
}

TEST(SuiteRunner, MismatchedTraceShapeThrows)
{
    // A silent trace_records/seed mismatch used to make every config
    // after the first simulate a trace it did not ask for.
    std::vector<NamedConfig> configs = {
        nonSecureConfig(SimMode::Timing),
        rmccConfig(SimMode::Timing),
    };
    configs[1].cfg.trace_records = configs[0].cfg.trace_records / 2;
    const auto *w = wl::findWorkload("omnetpp");
    EXPECT_THROW(runWorkload(*w, configs), std::invalid_argument);
    EXPECT_THROW(runSuite(configs), std::invalid_argument);

    configs[1].cfg.trace_records = configs[0].cfg.trace_records;
    configs[1].cfg.seed = configs[0].cfg.seed + 1;
    EXPECT_THROW(runWorkload(*w, configs), std::invalid_argument);

    EXPECT_THROW(runSuite({}), std::invalid_argument);
}

TEST(SuiteRunner, ParallelMatchesSerialBitForBit)
{
    // The whole point of the parallel runner: RMCC_JOBS only changes
    // wall-clock, never results.  Every stat of every (workload, config)
    // cell must agree between a 4-job and a 1-job run.
    std::vector<NamedConfig> configs = {
        nonSecureConfig(SimMode::Timing),
        rmccConfig(SimMode::Timing),
    };
    for (auto &nc : configs) {
        nc.cfg.trace_records = 20000;
        nc.cfg.warmup_records = 10000;
    }

    setenv("RMCC_JOBS", "4", 1);
    EXPECT_EQ(suiteJobs(), 4u);
    const std::vector<SuiteRow> parallel = runSuite(configs);
    setenv("RMCC_JOBS", "1", 1);
    EXPECT_EQ(suiteJobs(), 1u);
    const std::vector<SuiteRow> serial = runSuite(configs);
    unsetenv("RMCC_JOBS");

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t w = 0; w < serial.size(); ++w) {
        EXPECT_EQ(parallel[w].workload, serial[w].workload);
        ASSERT_EQ(parallel[w].results.size(), serial[w].results.size());
        for (std::size_t c = 0; c < serial[w].results.size(); ++c) {
            const SimResult &p = parallel[w].results[c];
            const SimResult &s = serial[w].results[c];
            EXPECT_EQ(p.config_label, s.config_label);
            EXPECT_EQ(p.instructions, s.instructions);
            EXPECT_EQ(p.elapsed_ns, s.elapsed_ns);
            EXPECT_EQ(p.stats.all(), s.stats.all())
                << parallel[w].workload << " / " << p.config_label;
        }
    }
}

TEST(SuiteRunner, ProgressReportsEveryWorkloadOnce)
{
    std::vector<NamedConfig> configs = {nonSecureConfig(SimMode::Timing)};
    configs[0].cfg.trace_records = 5000;
    configs[0].cfg.warmup_records = 2500;
    std::vector<std::string> expected;
    for (const auto &w : wl::workloadSuite())
        expected.push_back(w.name);
    for (unsigned jobs : {1u, 4u}) {
        setenv("RMCC_JOBS", std::to_string(jobs).c_str(), 1);
        std::mutex mutex;
        std::vector<std::string> reported;
        runSuite(configs, [&](const std::string &w) {
            std::lock_guard<std::mutex> lock(mutex);
            reported.push_back(w);
        });
        // A pool of one runs the cells inline in suite order, so the
        // workloads finish, and are reported, in that order too.
        if (jobs == 1) {
            EXPECT_EQ(reported, expected);
        }
        std::sort(reported.begin(), reported.end());
        std::vector<std::string> sorted = expected;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(reported, sorted) << "jobs=" << jobs;
    }
    unsetenv("RMCC_JOBS");
}

namespace
{

/** RAII installer for the per-cell fault hook (always restores empty). */
struct HookGuard
{
    explicit HookGuard(
        std::function<void(const std::string &, const std::string &)> h)
    {
        detail::cell_fault_hook = std::move(h);
    }
    ~HookGuard() { detail::cell_fault_hook = nullptr; }
};

std::vector<NamedConfig>
tinyConfigs()
{
    std::vector<NamedConfig> configs = {
        nonSecureConfig(SimMode::Timing),
        rmccConfig(SimMode::Timing),
    };
    for (auto &nc : configs) {
        nc.cfg.trace_records = 5000;
        nc.cfg.warmup_records = 2500;
    }
    return configs;
}

} // namespace

TEST(SuiteRunner, FailingCellIsIsolatedAndRecorded)
{
    // One (workload, config) cell that always throws must not take the
    // suite down: every other cell still produces results, and the
    // broken cell's status carries the error.
    const std::vector<NamedConfig> configs = tinyConfigs();
    HookGuard guard([](const std::string &w, const std::string &label) {
        if (w == "omnetpp" && label == "RMCC")
            throw std::runtime_error("induced cell fault");
    });
    for (unsigned jobs : {1u, 4u}) {
        setenv("RMCC_JOBS", std::to_string(jobs).c_str(), 1);
        const std::vector<SuiteRow> rows = runSuite(configs);
        ASSERT_EQ(rows.size(), wl::workloadSuite().size());
        std::size_t failed = 0;
        for (const SuiteRow &row : rows) {
            ASSERT_EQ(row.statuses.size(), configs.size());
            for (std::size_t c = 0; c < configs.size(); ++c) {
                const CellStatus &st = row.statuses[c];
                if (row.workload == "omnetpp" &&
                    configs[c].label == "RMCC") {
                    ++failed;
                    EXPECT_EQ(st.state, CellState::Failed);
                    EXPECT_NE(st.error.find("induced cell fault"),
                              std::string::npos);
                    EXPECT_FALSE(row.allOk());
                    // The placeholder result keeps the grid rectangular.
                    EXPECT_EQ(row.results[c].config_label, "RMCC");
                    EXPECT_EQ(row.results[c].instructions, 0u);
                } else {
                    EXPECT_TRUE(st.ok())
                        << row.workload << "/" << configs[c].label
                        << ": " << st.error;
                    EXPECT_GT(row.results[c].instructions, 0u);
                }
            }
        }
        EXPECT_EQ(failed, 1u) << "jobs=" << jobs;
    }
    unsetenv("RMCC_JOBS");
}

TEST(SuiteRunner, TraceGenerationFailureFailsWholeRow)
{
    // Spilling into a "directory" that is a regular file makes every
    // trace generation throw.  Each workload's row must come back with
    // every cell Failed, the generation error and a labelled placeholder
    // result, instead of the suite aborting.
    const std::string file = testing::TempDir() + "rmcc_not_a_dir";
    std::FILE *f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    const std::vector<NamedConfig> configs = tinyConfigs();
    setenv("RMCC_TRACE_SPILL", "on", 1);
    setenv("RMCC_TRACE_DIR", file.c_str(), 1);
    for (unsigned jobs : {1u, 4u}) {
        setenv("RMCC_JOBS", std::to_string(jobs).c_str(), 1);
        const std::vector<SuiteRow> rows = runSuite(configs);
        ASSERT_EQ(rows.size(), wl::workloadSuite().size());
        for (const SuiteRow &row : rows) {
            ASSERT_EQ(row.statuses.size(), configs.size());
            for (std::size_t c = 0; c < configs.size(); ++c) {
                const CellStatus &st = row.statuses[c];
                EXPECT_EQ(st.state, CellState::Failed)
                    << row.workload << "/" << configs[c].label
                    << " jobs=" << jobs;
                EXPECT_NE(st.error.find("trace generation failed"),
                          std::string::npos)
                    << st.error;
                EXPECT_EQ(row.results[c].workload, row.workload);
                EXPECT_EQ(row.results[c].config_label, configs[c].label);
                EXPECT_EQ(row.results[c].instructions, 0u);
            }
        }
    }
    unsetenv("RMCC_JOBS");
    unsetenv("RMCC_TRACE_DIR");
    unsetenv("RMCC_TRACE_SPILL");
    std::remove(file.c_str());
}

namespace
{

/** Files under dir this process has mapped, from /proc/self/maps. */
std::set<std::string>
mappedUnder(const std::string &dir)
{
    std::set<std::string> paths;
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        const std::size_t at = line.find(dir);
        if (at != std::string::npos)
            paths.insert(line.substr(at));
    }
    return paths;
}

} // namespace

TEST(SuiteRunner, FreesEachTraceAfterItsLastCell)
{
#ifndef __linux__
    GTEST_SKIP() << "reads /proc/self/maps";
#endif
    // A spilled trace stays mmap'd for as long as the runner holds its
    // handle (and, on the trace, its front-end recordings), so
    // /proc/self/maps shows which traces are still alive.  With one job
    // the cells run in suite order: when workload k's first cell starts,
    // the traces of workloads 0..k-1 must already be gone.
    const std::string dir = testing::TempDir() + "rmcc_trace_release_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    setenv("RMCC_TRACE_SPILL", "on", 1);
    setenv("RMCC_TRACE_DIR", dir.c_str(), 1);
    setenv("RMCC_JOBS", "1", 1);
    const std::vector<NamedConfig> configs = tinyConfigs();
    std::vector<std::pair<std::string, std::size_t>> mapped_at_start;
    {
        HookGuard guard([&](const std::string &w, const std::string &label) {
            if (label == configs.front().label)
                mapped_at_start.emplace_back(w, mappedUnder(dir).size());
        });
        const std::vector<SuiteRow> rows = runSuite(configs);
        for (const SuiteRow &row : rows)
            EXPECT_TRUE(row.allOk()) << row.workload;
    }
    unsetenv("RMCC_JOBS");
    unsetenv("RMCC_TRACE_DIR");
    unsetenv("RMCC_TRACE_SPILL");

    const std::size_t n = wl::workloadSuite().size();
    ASSERT_EQ(mapped_at_start.size(), n);
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_EQ(mapped_at_start[k].second, n - k)
            << mapped_at_start[k].first;
    EXPECT_TRUE(mappedUnder(dir).empty());
    std::filesystem::remove_all(dir);
}

TEST(SuiteRunner, TimeoutAbortsCellCooperatively)
{
    // RMCC_CELL_TIMEOUT_MS is enforced, not advisory: the simulators poll
    // the cell's cancellation token between records, so an overrunning
    // cell is aborted mid-flight (placeholder result) and flagged
    // TimedOut.  The hook burns the whole budget and then polls once —
    // exactly what the record loops do — so the abort fires
    // deterministically regardless of how fast the cell would have run.
    setenv("RMCC_CELL_TIMEOUT_MS", "5", 1);
    const std::vector<NamedConfig> configs = tinyConfigs();
    HookGuard guard([](const std::string &, const std::string &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        util::pollCancel();
    });
    const auto *w = wl::findWorkload("omnetpp");
    const SuiteRow row = runWorkload(*w, configs);
    unsetenv("RMCC_CELL_TIMEOUT_MS");
    for (std::size_t c = 0; c < row.statuses.size(); ++c) {
        EXPECT_EQ(row.statuses[c].state, CellState::TimedOut);
        EXPECT_EQ(row.results[c].instructions, 0u); // aborted: placeholder
        EXPECT_NE(row.statuses[c].error.find("RMCC_CELL_TIMEOUT_MS"),
                  std::string::npos);
    }
    EXPECT_FALSE(row.allOk());
    EXPECT_STREQ(cellStateName(row.statuses[0].state), "timed-out");
}

TEST(SuiteRunner, StatusesReportCleanRuns)
{
    const std::vector<NamedConfig> configs = tinyConfigs();
    const auto *w = wl::findWorkload("omnetpp");
    const SuiteRow row = runWorkload(*w, configs);
    ASSERT_EQ(row.statuses.size(), configs.size());
    EXPECT_TRUE(row.allOk());
    for (const CellStatus &st : row.statuses) {
        EXPECT_STREQ(cellStateName(st.state), "ok");
        EXPECT_TRUE(st.error.empty());
        EXPECT_GT(st.elapsed_ms, 0.0);
    }
}

TEST(SuiteRunner, SharedTraceAcrossConfigs)
{
    // runWorkload generates one trace and feeds every configuration the
    // same instruction stream, so normalized comparisons are apples to
    // apples: instruction counts must agree across configs.
    std::vector<NamedConfig> configs = {
        nonSecureConfig(SimMode::Timing),
        rmccConfig(SimMode::Timing),
    };
    for (auto &nc : configs) {
        nc.cfg.trace_records = 60000;
        nc.cfg.warmup_records = 30000;
    }
    const auto *w = wl::findWorkload("omnetpp");
    const SuiteRow row = runWorkload(*w, configs);
    ASSERT_EQ(row.results.size(), 2u);
    EXPECT_EQ(row.results[0].instructions, row.results[1].instructions);
    EXPECT_EQ(row.workload, "omnetpp");
    EXPECT_EQ(row.results[0].config_label, "non-secure");
    EXPECT_EQ(row.results[1].config_label, "RMCC");
}

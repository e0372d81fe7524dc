/**
 * @file
 * Out-of-core trace engine tests: on-disk round-trip and validation
 * (header checksum, truncation, corruption, fingerprint), windowed
 * replay equivalence against the in-RAM buffer for every workload
 * generator, the spill cache's reuse/regenerate behavior, and a spilled
 * parallel suite run bit-identical to a serial in-RAM one.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiments.hpp"
#include "sim/functional_sim.hpp"
#include "sim/timing_sim.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_plan.hpp"
#include "trace/trace_reader.hpp"
#include "util/checksum.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;

namespace
{

/** Fresh per-test file path under the gtest temp dir. */
std::string
tmpPath(const std::string &leaf)
{
    const std::string p = testing::TempDir() + leaf;
    std::remove(p.c_str());
    return p;
}

/** Stream one workload into a finalized trace file; returns its path. */
std::string
writeWorkloadFile(const wl::Workload &w, std::uint64_t records,
                  std::uint64_t seed, const std::string &leaf,
                  std::uint64_t chunk_records = trace::kTraceChunkRecords)
{
    const std::string path = tmpPath(leaf);
    trace::TraceFileWriter writer(
        path, records, trace::traceFingerprint(w.name, records, seed),
        chunk_records);
    w.generate(writer, seed);
    writer.finalize();
    return path;
}

/** Concatenate every window a source serves. */
std::vector<trace::Record>
drain(const trace::TraceSource &src)
{
    std::vector<trace::Record> out;
    const auto cur = src.cursor();
    for (trace::TraceWindow w = cur->next(); w.count != 0; w = cur->next())
        out.insert(out.end(), w.data, w.data + w.count);
    return out;
}

/** Bit-exact record-stream equality. */
void
expectSameStream(const std::vector<trace::Record> &a,
                 const std::vector<trace::Record> &b)
{
    ASSERT_EQ(a.size(), b.size());
    if (!a.empty()) {
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(trace::Record)),
                  0);
    }
}

/** XOR one byte of a file in place. */
void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

/** RAII env-var setter that restores the prior value. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        old_ = had_ ? old : "";
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }
    std::string name_, old_;
    bool had_ = false;
};

/** Small two-config timing grid. */
std::vector<sim::NamedConfig>
spillSuiteConfigs()
{
    std::vector<sim::NamedConfig> configs = {
        sim::nonSecureConfig(sim::SimMode::Timing),
        sim::rmccConfig(sim::SimMode::Timing),
    };
    for (auto &nc : configs) {
        nc.cfg.trace_records = 5000;
        nc.cfg.warmup_records = 2500;
    }
    return configs;
}

} // namespace

TEST(SpillEnv, StrictParsing)
{
    {
        EnvGuard g1("RMCC_TRACE_SPILL", nullptr);
        EnvGuard g2("RMCC_TRACE_DIR", nullptr);
        const trace::SpillConfig sc = trace::spillConfigFromEnv();
        EXPECT_EQ(sc.mode, trace::SpillConfig::Mode::Off);
        EXPECT_FALSE(sc.shouldSpill(1ULL << 40));
    }
    {
        EnvGuard g("RMCC_TRACE_SPILL", "on");
        EXPECT_EQ(trace::spillConfigFromEnv().mode,
                  trace::SpillConfig::Mode::On);
    }
    {
        EnvGuard g("RMCC_TRACE_SPILL", "sometimes");
        EXPECT_THROW(trace::spillConfigFromEnv(), std::runtime_error);
    }
}

TEST(TraceFile, RoundTripPreservesRecordsAndTotals)
{
    const wl::Workload &w = wl::workloadSuite().front();
    constexpr std::uint64_t kRecords = 5000, kSeed = 7;
    const trace::TraceBuffer ram = wl::generateTrace(w, kRecords, kSeed);
    const std::string path =
        writeWorkloadFile(w, kRecords, kSeed, "rmcc_trc_roundtrip");

    const trace::TraceFileReader reader(
        path, 0, trace::traceFingerprint(w.name, kRecords, kSeed));
    EXPECT_EQ(reader.size(), ram.size());
    EXPECT_EQ(reader.totalInstructions(), ram.totalInstructions());
    EXPECT_EQ(reader.writes(), ram.writes());
    EXPECT_EQ(reader.dropped(), ram.dropped());
    EXPECT_EQ(reader.distinctBlocks(), ram.distinctBlocks());
    expectSameStream(drain(reader), drain(ram));
    std::remove(path.c_str());
}

TEST(TraceFile, WindowedCursorServesLookaheadAcrossBoundaries)
{
    const wl::Workload &w = wl::workloadSuite().front();
    constexpr std::uint64_t kRecords = 5000, kSeed = 7, kWindow = 700;
    const std::string path =
        writeWorkloadFile(w, kRecords, kSeed, "rmcc_trc_windows");
    const trace::TraceFileReader reader(path, kWindow);
    EXPECT_EQ(reader.windowRecords(), kWindow);
    EXPECT_EQ(reader.windowCount(), (kRecords + kWindow - 1) / kWindow);

    const auto cur = reader.cursor();
    std::uint64_t expect_first = 0;
    std::vector<trace::Record> seen;
    for (trace::TraceWindow win = cur->next(); win.count != 0;
         win = cur->next()) {
        EXPECT_EQ(win.first, expect_first);
        const bool last = win.first + win.count == kRecords;
        EXPECT_EQ(win.count, last ? kRecords - win.first : kWindow);
        if (last) {
            EXPECT_EQ(win.ahead, nullptr);
        } else {
            // `ahead` must be the first record of the next window.
            ASSERT_NE(win.ahead, nullptr);
            EXPECT_EQ(std::memcmp(win.ahead, win.data + win.count,
                                  sizeof(trace::Record)),
                      0);
        }
        seen.insert(seen.end(), win.data, win.data + win.count);
        expect_first += win.count;
    }
    const trace::TraceBuffer ram = wl::generateTrace(w, kRecords, kSeed);
    expectSameStream(seen, drain(ram));

    // The reader's cursor reports I/O stats; the buffer's does not.
    EXPECT_NE(reader.cursor()->ioStats(), nullptr);
    EXPECT_EQ(ram.cursor()->ioStats(), nullptr);
    std::remove(path.c_str());
}

TEST(TraceFile, AbandonedWriterLeavesNoFile)
{
    const std::string path = tmpPath("rmcc_trc_abandoned");
    {
        trace::TraceFileWriter writer(path, 100, 1);
        writer.append(0x1000, false, 3);
        // No finalize(): destructor must unlink the temporary.
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    bool tmp_left = false;
    for (const auto &e :
         std::filesystem::directory_iterator(testing::TempDir()))
        if (e.path().string().find("rmcc_trc_abandoned.tmp.") !=
            std::string::npos)
            tmp_left = true;
    EXPECT_FALSE(tmp_left);
}

TEST(TraceFile, TruncatedFileRejected)
{
    const wl::Workload &w = wl::workloadSuite().front();
    const std::string path =
        writeWorkloadFile(w, 3000, 11, "rmcc_trc_truncated");
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 8);
    EXPECT_THROW(trace::TraceFileReader{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, CorruptHeaderRejected)
{
    const wl::Workload &w = wl::workloadSuite().front();
    const std::string path =
        writeWorkloadFile(w, 3000, 11, "rmcc_trc_badheader");
    flipByte(path, offsetof(trace::FileHeader, record_count));
    EXPECT_THROW(trace::TraceFileReader{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, CorruptRecordPayloadRejected)
{
    const wl::Workload &w = wl::workloadSuite().front();
    const std::string path =
        writeWorkloadFile(w, 3000, 11, "rmcc_trc_badrecord");
    // One bit anywhere in the record stream must fail a chunk checksum.
    flipByte(path, sizeof(trace::FileHeader) + 1500 * 8 + 3);
    EXPECT_THROW(trace::TraceFileReader{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, WrongFingerprintRejected)
{
    const wl::Workload &w = wl::workloadSuite().front();
    constexpr std::uint64_t kRecords = 3000, kSeed = 11;
    const std::string path =
        writeWorkloadFile(w, kRecords, kSeed, "rmcc_trc_badfp");
    const std::uint64_t fp =
        trace::traceFingerprint(w.name, kRecords, kSeed);
    EXPECT_NO_THROW(trace::TraceFileReader(path, 0, fp));
    EXPECT_THROW(trace::TraceFileReader(path, 0, fp + 1),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, PlanTotalsMatchStreamTotals)
{
    const wl::Workload &w = wl::workloadSuite().front();
    constexpr std::uint64_t kRecords = 5000, kSeed = 7, kWindow = 900;
    const std::string path =
        writeWorkloadFile(w, kRecords, kSeed, "rmcc_trc_plan");
    const trace::TraceFileReader reader(path, kWindow);
    const trace::TracePlan *plan = reader.plan();
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->records, kRecords);
    EXPECT_EQ(plan->records, reader.size());
    EXPECT_EQ(plan->writes, reader.writes());
    EXPECT_EQ(plan->instructions, reader.totalInstructions());
    EXPECT_EQ(plan->distinct_blocks, reader.distinctBlocks());
    std::remove(path.c_str());
}

TEST(TraceFile, FunctionalReplayEquivalentForEveryWorkload)
{
    // Window chosen to NOT divide the trace: several boundary crossings
    // plus a short final window per workload.
    constexpr std::uint64_t kRecords = 4000, kSeed = 3, kWindow = 900;
    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Functional);
    nc.cfg.trace_records = kRecords;
    nc.cfg.warmup_records = kRecords / 2;
    for (const wl::Workload &w : wl::workloadSuite()) {
        const trace::TraceBuffer ram =
            wl::generateTrace(w, kRecords, kSeed);
        const std::string path = writeWorkloadFile(
            w, kRecords, kSeed, "rmcc_trc_eq_" + w.name);
        const trace::TraceFileReader reader(path, kWindow);
        const sim::SimResult a = sim::runFunctional(w.name, ram, nc.cfg);
        const sim::SimResult b =
            sim::runFunctional(w.name, reader, nc.cfg);
        EXPECT_EQ(a.stats.all(), b.stats.all()) << w.name;
        std::remove(path.c_str());
    }
}

TEST(TraceFile, TimingReplayEquivalentAcrossWindows)
{
    constexpr std::uint64_t kRecords = 5000, kSeed = 3, kWindow = 1100;
    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Timing);
    nc.cfg.trace_records = kRecords;
    nc.cfg.warmup_records = kRecords / 2;
    const wl::Workload &w = wl::workloadSuite().front();
    const trace::TraceBuffer ram = wl::generateTrace(w, kRecords, kSeed);
    const std::string path =
        writeWorkloadFile(w, kRecords, kSeed, "rmcc_trc_timing_eq");
    const trace::TraceFileReader reader(path, kWindow);
    const sim::SimResult a = sim::runTiming(w.name, ram, nc.cfg);
    const sim::SimResult b = sim::runTiming(w.name, reader, nc.cfg);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    std::remove(path.c_str());
}

TEST(SpillCache, ReusesValidFileAndRegeneratesCorruptOne)
{
    const std::string dir = tmpPath("rmcc_spill_cache");
    EnvGuard g1("RMCC_TRACE_SPILL", "on");
    EnvGuard g2("RMCC_TRACE_DIR", dir.c_str());
    const wl::Workload &w = wl::workloadSuite().front();
    constexpr std::uint64_t kRecords = 3000, kSeed = 5;

    std::string path;
    std::filesystem::file_time_type first_mtime;
    {
        const wl::TraceHandle h =
            wl::generateTraceHandle(w, kRecords, kSeed);
        ASSERT_TRUE(h.spilled());
        path = h.path();
        ASSERT_TRUE(std::filesystem::exists(path));
        first_mtime = std::filesystem::last_write_time(path);
    }
    {
        // Second generation must reuse the cached file, not rewrite it.
        const wl::TraceHandle h =
            wl::generateTraceHandle(w, kRecords, kSeed);
        ASSERT_TRUE(h.spilled());
        EXPECT_EQ(h.path(), path);
        EXPECT_EQ(std::filesystem::last_write_time(path), first_mtime);
    }
    // A corrupted cache entry must be rejected and regenerated, and the
    // regenerated trace must replay identically to the in-RAM stream.
    flipByte(path, sizeof(trace::FileHeader) + 100 * 8);
    {
        const wl::TraceHandle h =
            wl::generateTraceHandle(w, kRecords, kSeed);
        ASSERT_TRUE(h.spilled());
        const trace::TraceBuffer ram =
            wl::generateTrace(w, kRecords, kSeed);
        expectSameStream(drain(h.source()), drain(ram));
    }
    std::filesystem::remove_all(dir);
}

TEST(SpillCache, OlderFormatVersionIsRegenerated)
{
    // A cache directory left behind by a build that wrote format 2 (the
    // retired delta encoding) holds files under the same fingerprinted
    // paths.  Opening one must fail, and the cache must replace it with a
    // current file that replays exactly like the in-RAM trace.
    const std::string dir = tmpPath("rmcc_spill_cache_v2");
    EnvGuard g1("RMCC_TRACE_SPILL", "on");
    EnvGuard g2("RMCC_TRACE_DIR", dir.c_str());
    const wl::Workload &w = wl::workloadSuite().front();
    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Functional);
    nc.cfg.trace_records = 4000;
    nc.cfg.warmup_records = 2000;
    const std::uint64_t fp = trace::traceFingerprint(
        w.name, nc.cfg.trace_records, nc.cfg.seed);

    std::string path;
    {
        const wl::TraceHandle h =
            wl::generateTraceHandle(w, nc.cfg.trace_records, nc.cfg.seed);
        ASSERT_TRUE(h.spilled());
        path = h.path();
    }
    {
        // Restamp the header as version 2, checksum kept valid, so the
        // version is the only thing wrong with the file.
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        trace::FileHeader h{};
        f.read(reinterpret_cast<char *>(&h), sizeof h);
        h.version = 2;
        h.header_checksum = 0;
        h.header_checksum = util::checksum64(&h, sizeof h);
        f.seekp(0);
        f.write(reinterpret_cast<const char *>(&h), sizeof h);
        ASSERT_TRUE(f.good());
    }
    EXPECT_THROW(trace::TraceFileReader(path, 0, fp), std::runtime_error);

    const wl::TraceHandle h =
        wl::generateTraceHandle(w, nc.cfg.trace_records, nc.cfg.seed);
    ASSERT_TRUE(h.spilled());
    EXPECT_EQ(h.path(), path);
    EXPECT_EQ(trace::TraceFileReader(path, 0, fp).header().version,
              trace::kTraceFormatVersion);
    const trace::TraceBuffer ram =
        wl::generateTrace(w, nc.cfg.trace_records, nc.cfg.seed);
    const sim::SimResult a = sim::runFunctional(w.name, ram, nc.cfg);
    const sim::SimResult b = sim::runFunctional(w.name, h.source(), nc.cfg);
    EXPECT_EQ(b.instructions, a.instructions);
    EXPECT_EQ(b.stats.all(), a.stats.all());
    std::filesystem::remove_all(dir);
}

TEST(SpillSuite, SpilledSuiteMatchesInRamRun)
{
    // A spilled suite on a pool of four must equal a serial in-RAM run:
    // every cell replays its workload's trace file through windowed mmap
    // while other cells of the same workload read it concurrently.
    const std::string dir = tmpPath("rmcc_spill_suite_dir");
    const std::vector<sim::NamedConfig> configs = spillSuiteConfigs();

    std::vector<sim::SuiteRow> reference;
    {
        EnvGuard jobs("RMCC_JOBS", "1");
        EnvGuard off("RMCC_TRACE_SPILL", nullptr);
        reference = sim::runSuite(configs);
    }
    std::vector<sim::SuiteRow> spilled;
    {
        EnvGuard jobs("RMCC_JOBS", "4");
        EnvGuard spill("RMCC_TRACE_SPILL", "on");
        EnvGuard spill_dir("RMCC_TRACE_DIR", dir.c_str());
        spilled = sim::runSuite(configs);
    }

    ASSERT_EQ(spilled.size(), reference.size());
    for (std::size_t w = 0; w < reference.size(); ++w) {
        EXPECT_EQ(spilled[w].workload, reference[w].workload);
        ASSERT_TRUE(reference[w].allOk()) << reference[w].workload;
        ASSERT_TRUE(spilled[w].allOk()) << spilled[w].workload;
        ASSERT_EQ(spilled[w].results.size(),
                  reference[w].results.size());
        for (std::size_t c = 0; c < reference[w].results.size(); ++c) {
            const sim::SimResult &a = reference[w].results[c];
            const sim::SimResult &b = spilled[w].results[c];
            EXPECT_EQ(b.instructions, a.instructions);
            EXPECT_EQ(b.elapsed_ns, a.elapsed_ns);
            EXPECT_EQ(b.stats.all(), a.stats.all())
                << reference[w].workload << " / " << a.config_label;
        }
    }
    std::filesystem::remove_all(dir);
}

/** One staged-heap generation per suite workload, into both sinks. */
class StagedSinks : public ::testing::TestWithParam<const char *>
{
};

TEST_P(StagedSinks, InRamAndSpilledGenerationsAgree)
{
    // 4099-record chunks: the heap's blocks straddle chunk boundaries.
    const wl::Workload *w = wl::findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    constexpr std::uint64_t kRecords = 30000, kSeed = 5, kChunk = 4099;
    const trace::TraceBuffer ram = wl::generateTrace(*w, kRecords, kSeed);
    const std::string path = writeWorkloadFile(
        *w, kRecords, kSeed, std::string("rmcc_trc_staged_") + GetParam(),
        kChunk);
    const trace::TraceFileReader reader(path, 0);
    EXPECT_EQ(ram.size(), kRecords);
    EXPECT_EQ(ram.dropped(), 0u);
    EXPECT_EQ(reader.size(), ram.size());
    EXPECT_EQ(reader.dropped(), 0u);
    EXPECT_EQ(reader.totalInstructions(), ram.totalInstructions());
    EXPECT_EQ(reader.writes(), ram.writes());
    EXPECT_EQ(reader.distinctBlocks(), ram.distinctBlocks());
    expectSameStream(drain(reader), ram.records());
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Suite, StagedSinks,
                         ::testing::Values("pageRank", "graphColoring",
                                           "connectedComp", "degreeCentr",
                                           "DFS", "BFS", "triangleCount",
                                           "shortestPath", "canneal",
                                           "omnetpp", "mcf"));

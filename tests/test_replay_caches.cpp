/**
 * @file
 * The warm-up's cache recording (sim/rig.hpp).  A cell that warms up
 * drives the cache hierarchy once, in preconditionRmcc, and its measured
 * loop replays the recorded outcomes.  These tests pin that the
 * recording equals a standalone Hierarchy run over the same translated
 * stream, in RAM and spilled, and that every cell calls
 * Hierarchy::access exactly once per record.
 *
 * The call count comes from the linker: this test links with
 * --wrap=<Hierarchy::access>, so every call, from the simulator
 * libraries or from this file, goes through countingAccess below (see
 * tests/CMakeLists.txt).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "sim/experiments.hpp"
#include "sim/rig.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_reader.hpp"
#include "trace/traced_memory.hpp"
#include "workloads/graph.hpp"
#include "workloads/graphbig.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;

// Hierarchy::access(Addr, bool) under its Itanium-ABI symbol name.  The
// member's `this` is the free function's first parameter.
cache::HierarchyResult realAccess(cache::Hierarchy *h, addr::Addr paddr,
                                  bool is_write)
    __asm__("__real__ZN4rmcc5cache9Hierarchy6accessEmb");
cache::HierarchyResult countingAccess(cache::Hierarchy *h, addr::Addr paddr,
                                      bool is_write)
    __asm__("__wrap__ZN4rmcc5cache9Hierarchy6accessEmb");

namespace
{

std::uint64_t g_access_calls = 0;

} // namespace

cache::HierarchyResult
countingAccess(cache::Hierarchy *h, addr::Addr paddr, bool is_write)
{
    ++g_access_calls;
    return realAccess(h, paddr, is_write);
}

namespace
{

using Generator = std::function<void(trace::TraceSink &)>;

/**
 * pageRank over a 64k-vertex graph instead of the shared 4M-vertex one:
 * with smallCaches() it is write-heavy enough to produce writebacks and
 * accesses that evict two dirty LLC lines at once.
 */
Generator
smallPageRank(std::uint64_t seed)
{
    return [seed](trace::TraceSink &sink) {
        static const wl::Graph g =
            wl::Graph::powerLaw(64 * 1024, 512 * 1024, 0.75, 7);
        trace::TracedHeap heap(sink, 5.0, seed);
        wl::runPageRank(g, heap, seed);
    };
}

/** Shrink the hierarchy so short traces write back and thrash the LLC. */
void
smallCaches(sim::SystemConfig &cfg)
{
    cfg.l1.size_bytes = 8 * 1024;
    cfg.l2.size_bytes = 32 * 1024;
    cfg.llc.size_bytes = 128 * 1024;
    cfg.llc.assoc = 8;
}

sim::SystemConfig
rmccTiming(std::uint64_t records)
{
    sim::SystemConfig cfg = sim::rmccConfig(sim::SimMode::Timing).cfg;
    cfg.trace_records = records;
    cfg.warmup_records = records / 2;
    return cfg;
}

/** Tallies of one recording-vs-standalone comparison. */
struct Compared
{
    std::uint64_t records = 0, llc_misses = 0, writebacks = 0;
    std::uint64_t double_writebacks = 0; //!< Two dirty LLC victims at once.
    std::uint64_t mismatches = 0;
};

/**
 * Warm a rig up over src, then replay its recording next to a fresh
 * Hierarchy driven over the same stream, translated by the warmed
 * mapper exactly as the measured loop translates it.
 */
Compared
compareRecording(const trace::TraceSource &src, const sim::SystemConfig &cfg)
{
    sim::detail::SimRig rig(cfg);
    sim::detail::RecordedCaches rec =
        sim::detail::preconditionRmcc(rig, cfg, src);
    cache::Hierarchy ref(cfg.l1, cfg.l2, cfg.llc);
    Compared c;
    const auto cur = src.cursor();
    for (trace::TraceWindow w = cur->next(); w.count != 0; w = cur->next()) {
        for (std::size_t k = 0; k < w.count; ++k, ++c.records) {
            const trace::Record &r = w.data[k];
            const addr::Addr paddr = rig.mapper.translate(r.vaddr);
            const std::uint64_t llc_wbs = ref.llc().writebacks();
            const cache::HierarchyResult h = ref.access(paddr, r.is_write);
            const sim::detail::CacheOutcome o = rec.next(paddr, r.is_write);
            const bool same =
                o.llc_miss == h.llc_miss &&
                o.llc_hit == (h.hit_level == 3) &&
                o.writeback == h.memory_writeback.has_value() &&
                (!o.writeback || o.victim == *h.memory_writeback);
            if (!same && c.mismatches++ == 0)
                ADD_FAILURE() << "first mismatch at record " << c.records;
            c.llc_misses += h.llc_miss;
            c.writebacks += o.writeback;
            c.double_writebacks += ref.llc().writebacks() - llc_wbs == 2;
        }
    }
    EXPECT_EQ(rec.llcAccesses(), ref.llc().accesses());
    EXPECT_EQ(rec.llcMisses(), ref.llc().misses());
    return c;
}

/** Compare in RAM, then from a spilled file read in small windows. */
Compared
compareInRamAndSpilled(const Generator &gen, const sim::SystemConfig &cfg,
                       const std::string &leaf)
{
    trace::TraceBuffer ram(cfg.trace_records);
    gen(ram);
    const Compared in_ram = compareRecording(ram, cfg);
    EXPECT_EQ(in_ram.records, ram.size());

    // 1100-record windows: the warm-up's lookahead crosses a window
    // boundary every 1100 records.
    const std::string path = testing::TempDir() + leaf;
    std::remove(path.c_str());
    {
        trace::TraceFileWriter writer(path, cfg.trace_records, 0);
        gen(writer);
        writer.finalize();
    }
    const trace::TraceFileReader spilled(path, 1100);
    const Compared from_file = compareRecording(spilled, cfg);
    EXPECT_EQ(in_ram.mismatches, 0u);
    EXPECT_EQ(from_file.mismatches, 0u);
    EXPECT_EQ(from_file.records, in_ram.records);
    EXPECT_EQ(from_file.writebacks, in_ram.writebacks);
    std::remove(path.c_str());
    return in_ram;
}

} // namespace

TEST(ReplayCaches, RecordingMatchesStandaloneHierarchyOnCanneal)
{
    sim::SystemConfig cfg = rmccTiming(60000);
    smallCaches(cfg);
    const wl::Workload *w = wl::findWorkload("canneal");
    const Compared c = compareInRamAndSpilled(
        [w](trace::TraceSink &sink) { w->generate(sink, 42); }, cfg,
        "rmcc_rec_canneal");
    EXPECT_GT(c.llc_misses, 0u);
    EXPECT_GT(c.writebacks, 0u);
}

TEST(ReplayCaches, RecordingMatchesStandaloneHierarchyOnPageRank)
{
    sim::SystemConfig cfg = rmccTiming(100000);
    smallCaches(cfg);
    const Compared c =
        compareInRamAndSpilled(smallPageRank(42), cfg, "rmcc_rec_pagerank");
    EXPECT_GT(c.writebacks, 0u);
    // The recording keeps the one victim Hierarchy::access returns; the
    // trace must reach that case for the comparison to cover it.
    EXPECT_GT(c.double_writebacks, 0u);
}

TEST(ReplayCaches, EveryCellCallsHierarchyAccessOncePerRecord)
{
    constexpr std::uint64_t kRecords = 20000;
    const trace::TraceBuffer trace =
        wl::generateTrace(*wl::findWorkload("canneal"), kRecords, 42);

    sim::NamedConfig no_precondition = sim::rmccConfig(sim::SimMode::Timing);
    no_precondition.cfg.precondition = false;
    const std::vector<sim::NamedConfig> cells = {
        sim::rmccConfig(sim::SimMode::Timing),
        sim::rmccConfig(sim::SimMode::Functional),
        no_precondition,
        sim::nonSecureConfig(sim::SimMode::Timing),
        sim::baselineConfig(sim::SimMode::Timing, ctr::SchemeKind::SC64),
        sim::baselineConfig(sim::SimMode::Functional,
                            ctr::SchemeKind::Morphable),
    };
    for (sim::NamedConfig nc : cells) {
        nc.cfg.trace_records = kRecords;
        nc.cfg.warmup_records = kRecords / 2;
        g_access_calls = 0;
        (void)sim::runOne("canneal", trace, nc);
        EXPECT_EQ(g_access_calls, trace.size())
            << nc.label << (nc.cfg.precondition ? "" : " (no precondition)");
    }
}

TEST(ReplayCaches, SimRigRefusesMoreThan32BitBlockNumbers)
{
    sim::SystemConfig cfg = rmccTiming(1000);
    cfg.phys_bytes = (std::uint64_t{1} << 32) * addr::kBlockSize * 2;
    EXPECT_THROW(sim::detail::SimRig rig(cfg), std::invalid_argument);
}

/**
 * @file
 * The front-end recording (sim/front_end.hpp).  One pass records each
 * record's translation and TLB and L1/L2/LLC outcome for a (trace,
 * front-end config); the recording is memoised on the trace, and every
 * cell replays it.  These tests pin that the recording equals a
 * standalone PageMapper, Tlb and Hierarchy run over the same stream, in
 * RAM and spilled; that all the cells of one trace and key translate and
 * run the front end once in total, also when they ask concurrently, and
 * only while recording; that keys never share a recording; and that a
 * cancelled build, an append or a copy never leaves a stale one.
 *
 * The call counts come from the linker: this test links with
 * --wrap=<Hierarchy::access>, --wrap=<Tlb::access> and
 * --wrap=<PageMapper::translate>, so every call, from the simulator
 * libraries or from this file, goes through the counting functions below
 * (see tests/CMakeLists.txt).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "address/page_mapper.hpp"
#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "sim/experiments.hpp"
#include "sim/front_end.hpp"
#include "sim/rig.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_reader.hpp"
#include "trace/traced_memory.hpp"
#include "util/rng.hpp"
#include "workloads/graph.hpp"
#include "workloads/graphbig.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;

// Hierarchy::access(Addr, bool), Tlb::access(Addr) and
// PageMapper::translate(Addr) under their Itanium-ABI symbol names.  A
// member's `this` is the free function's first parameter.
cache::HierarchyResult realAccess(cache::Hierarchy *h, addr::Addr paddr,
                                  bool is_write)
    __asm__("__real__ZN4rmcc5cache9Hierarchy6accessEmb");
cache::HierarchyResult countingAccess(cache::Hierarchy *h, addr::Addr paddr,
                                      bool is_write)
    __asm__("__wrap__ZN4rmcc5cache9Hierarchy6accessEmb");
bool realTlbAccess(cache::Tlb *t, addr::Addr vaddr)
    __asm__("__real__ZN4rmcc5cache3Tlb6accessEm");
bool countingTlbAccess(cache::Tlb *t, addr::Addr vaddr)
    __asm__("__wrap__ZN4rmcc5cache3Tlb6accessEm");
addr::Addr realTranslate(addr::PageMapper *m, addr::Addr vaddr)
    __asm__("__real__ZN4rmcc4addr10PageMapper9translateEm");
addr::Addr countingTranslate(addr::PageMapper *m, addr::Addr vaddr)
    __asm__("__wrap__ZN4rmcc4addr10PageMapper9translateEm");

namespace
{

std::atomic<std::uint64_t> g_access_calls{0};
std::atomic<std::uint64_t> g_tlb_calls{0};
std::atomic<std::uint64_t> g_translate_calls{0};
//! When nonzero, the Hierarchy::access call with this number sleeps
//! long enough for a cell's timeout to pass.
std::atomic<std::uint64_t> g_stall_at_call{0};
constexpr auto kStall = std::chrono::milliseconds(400);

void
resetCounts()
{
    g_access_calls = 0;
    g_tlb_calls = 0;
    g_translate_calls = 0;
}

} // namespace

cache::HierarchyResult
countingAccess(cache::Hierarchy *h, addr::Addr paddr, bool is_write)
{
    const std::uint64_t n = ++g_access_calls;
    if (n == g_stall_at_call.load())
        std::this_thread::sleep_for(kStall);
    return realAccess(h, paddr, is_write);
}

bool
countingTlbAccess(cache::Tlb *t, addr::Addr vaddr)
{
    ++g_tlb_calls;
    return realTlbAccess(t, vaddr);
}

addr::Addr
countingTranslate(addr::PageMapper *m, addr::Addr vaddr)
{
    ++g_translate_calls;
    return realTranslate(m, vaddr);
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

sim::NamedConfig
sized(sim::NamedConfig nc, std::uint64_t records)
{
    nc.cfg.trace_records = records;
    nc.cfg.warmup_records = records / 2;
    return nc;
}

/** Everything a cell reports, for exact comparison. */
void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.elapsed_ns, b.elapsed_ns) << what;
    EXPECT_EQ(a.stats.all(), b.stats.all()) << what;
}

/** Tallies of one recording-vs-standalone comparison. */
struct Compared
{
    std::uint64_t records = 0, llc_misses = 0, writebacks = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t double_writebacks = 0; //!< Two dirty LLC victims at once.
    std::uint64_t mismatches = 0;
};

/**
 * Replay src's recording next to a fresh PageMapper, Tlb and Hierarchy
 * driven over the same stream in trace order.
 */
Compared
compareRecording(const trace::TraceSource &src, const sim::SystemConfig &cfg)
{
    const auto rec = sim::detail::frontEndRecording(src, cfg);
    sim::detail::FrontEndReplay replay(*rec);
    addr::PageMapper mapper =
        sim::detail::makePageMapper(sim::detail::frontEndConfig(cfg));
    cache::Hierarchy ref(cfg.l1, cfg.l2, cfg.llc);
    cache::Tlb tlb(cfg.tlb_entries, cfg.tlb_assoc, mapper.pageSize());
    Compared c;
    const auto cur = src.cursor();
    for (trace::TraceWindow w = cur->next(); w.count != 0; w = cur->next()) {
        for (std::size_t k = 0; k < w.count; ++k, ++c.records) {
            const trace::Record &r = w.data[k];
            const addr::Addr paddr = mapper.translate(r.vaddr);
            const std::uint64_t llc_wbs = ref.llc().writebacks();
            const bool tlb_hit = tlb.access(r.vaddr);
            const cache::HierarchyResult h = ref.access(paddr, r.is_write);
            const sim::detail::FrontEndOutcome o = replay.next();
            const bool same =
                o.tlb_miss == !tlb_hit && o.llc_miss == h.llc_miss &&
                (!o.llc_miss ||
                 o.miss == addr::blockBase(addr::blockOf(paddr))) &&
                o.llc_hit == (h.hit_level == 3) &&
                o.writeback == h.memory_writeback.has_value() &&
                (!o.writeback || o.victim == *h.memory_writeback);
            if (!same && c.mismatches++ == 0)
                ADD_FAILURE() << "first mismatch at record " << c.records;
            c.llc_misses += h.llc_miss;
            c.tlb_misses += !tlb_hit;
            c.writebacks += o.writeback;
            c.double_writebacks += ref.llc().writebacks() - llc_wbs == 2;
        }
    }
    EXPECT_EQ(rec->codes.size(), c.records);
    EXPECT_EQ(rec->misses.size(), c.llc_misses);
    EXPECT_EQ(replay.llcAccesses(), ref.llc().accesses());
    EXPECT_EQ(replay.llcMisses(), ref.llc().misses());
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

    // 1100-record windows: the builder's lookahead crosses a window
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
    EXPECT_EQ(from_file.tlb_misses, in_ram.tlb_misses);
    std::remove(path.c_str());
    return in_ram;
}

/**
 * Two tenants' random traffic, tagged at bit 40: a hot 256 KB region and
 * a 32 MB one per tenant, 30% writes.  Enough TLB and LLC misses and
 * writebacks that every front-end field changes what it records.
 */
trace::TraceBuffer
twoTenantTrace(std::size_t records)
{
    trace::TraceBuffer t(records);
    util::Rng rng(7);
    for (std::size_t i = 0; i < records; ++i) {
        const addr::Addr tenant = (i / 64) % 2;
        const std::uint64_t span =
            rng.next() % 2 == 0 ? 256 * 1024 : 32 * 1024 * 1024;
        const addr::Addr off = rng.next() % span & ~addr::Addr{7};
        t.append((tenant << 40) | off, rng.next() % 10 < 3,
                 static_cast<std::uint32_t>(rng.next() % 8));
    }
    return t;
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
    EXPECT_GT(c.tlb_misses, 0u);
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

namespace
{

/**
 * Six cells of one front-end key: timing and functional, RMCC with and
 * without warm-up, non-secure, SC-64 and Morphable.
 */
std::vector<sim::NamedConfig>
sixCellsOfOneKey(std::uint64_t records)
{
    sim::NamedConfig no_precondition = sim::rmccConfig(sim::SimMode::Timing);
    no_precondition.cfg.precondition = false;
    std::vector<sim::NamedConfig> cells = {
        sim::rmccConfig(sim::SimMode::Timing),
        sim::rmccConfig(sim::SimMode::Functional),
        no_precondition,
        sim::nonSecureConfig(sim::SimMode::Timing),
        sim::baselineConfig(sim::SimMode::Timing, ctr::SchemeKind::SC64),
        sim::baselineConfig(sim::SimMode::Functional,
                            ctr::SchemeKind::Morphable),
    };
    // The functional preset has a smaller L2/LLC, a front-end key of its
    // own; give those cells the timing geometry so all six share one.
    const sim::SystemConfig timing = sim::SystemConfig::timingDefault();
    for (sim::NamedConfig &nc : cells) {
        nc = sized(nc, records);
        nc.cfg.l2 = timing.l2;
        nc.cfg.llc = timing.llc;
    }
    return cells;
}

} // namespace

TEST(ReplayCaches, EveryCellCallsHierarchyAccessOncePerRecord)
{
    constexpr std::uint64_t kRecords = 20000;
    const trace::TraceBuffer trace =
        wl::generateTrace(*wl::findWorkload("canneal"), kRecords, 42);
    resetCounts();
    for (const sim::NamedConfig &nc : sixCellsOfOneKey(kRecords))
        (void)sim::runOne("canneal", trace, nc);
    EXPECT_EQ(g_access_calls, trace.size());
    EXPECT_EQ(g_tlb_calls, trace.size());
    EXPECT_EQ(g_translate_calls, trace.size());

    // A second key records once more, and then no more.
    const sim::NamedConfig functional =
        sized(sim::rmccConfig(sim::SimMode::Functional), kRecords);
    (void)sim::runOne("canneal", trace, functional);
    (void)sim::runOne("canneal", trace, functional);
    EXPECT_EQ(g_access_calls, 2 * trace.size());
    EXPECT_EQ(g_tlb_calls, 2 * trace.size());
    EXPECT_EQ(g_translate_calls, 2 * trace.size());
}

TEST(ReplayCaches, OnlyTheRecordingTranslates)
{
    // Every translation of a trace happens while its recording is built:
    // with the recording in place, neither the RMCC warm-up nor any
    // measured loop translates or runs a cache again.
    constexpr std::uint64_t kRecords = 20000;
    const trace::TraceBuffer trace =
        wl::generateTrace(*wl::findWorkload("canneal"), kRecords, 42);
    const std::vector<sim::NamedConfig> cells = sixCellsOfOneKey(kRecords);
    resetCounts();
    (void)sim::detail::frontEndRecording(trace, cells[0].cfg);
    EXPECT_EQ(g_translate_calls, trace.size());
    resetCounts();
    for (const sim::NamedConfig &nc : cells)
        (void)sim::runOne("canneal", trace, nc);
    EXPECT_EQ(g_translate_calls, 0u);
    EXPECT_EQ(g_access_calls, 0u);
    EXPECT_EQ(g_tlb_calls, 0u);
}

TEST(ReplayCaches, EachFrontEndKeyGetsItsOwnRecording)
{
    // For each FrontEndConfig field: a cell on a trace that already holds
    // the base key's recording must give exactly the result it gives on a
    // fresh copy of the trace (a copy starts with an empty memo).
    constexpr std::size_t kRecords = 40000;
    sim::NamedConfig base = sized(sim::rmccConfig(sim::SimMode::Timing),
                                  kRecords);
    smallCaches(base.cfg);
    base.cfg.page_mode = addr::PageMode::Small4K; // the mapper seed counts
    base.cfg.tenancy.tenants = 2;
    base.cfg.tenancy.tag_shift = 40;
    base.cfg.tenancy.strict = true;

    using Edit = std::function<void(sim::SystemConfig &)>;
    const std::vector<std::pair<std::string, Edit>> fields = {
        {"page_mode",
         [](auto &c) { c.page_mode = addr::PageMode::Huge2M; }},
        {"phys_bytes", [](auto &c) { c.phys_bytes *= 2; }},
        {"mapper seed", [](auto &c) { c.seed += 1; }},
        {"tenancy.strict", [](auto &c) { c.tenancy.strict = false; }},
        {"secure (strict tenancy)", [](auto &c) { c.secure = false; }},
        {"tenancy.tag_shift", [](auto &c) { c.tenancy.tag_shift = 41; }},
        {"tenancy.tenants", [](auto &c) { c.tenancy.tenants = 4; }},
        {"l1 size", [](auto &c) { c.l1.size_bytes *= 2; }},
        {"l1 assoc", [](auto &c) { c.l1.assoc = 4; }},
        {"l2 size", [](auto &c) { c.l2.size_bytes *= 2; }},
        {"l2 assoc", [](auto &c) { c.l2.assoc = 4; }},
        {"llc size", [](auto &c) { c.llc.size_bytes *= 2; }},
        {"llc assoc", [](auto &c) { c.llc.assoc = 4; }},
        {"tlb_entries", [](auto &c) { c.tlb_entries = 512; }},
        {"tlb_assoc", [](auto &c) { c.tlb_assoc = 4; }},
    };
    const trace::TraceBuffer pristine = twoTenantTrace(kRecords);
    const auto base_rec =
        sim::detail::frontEndRecording(pristine, base.cfg);
    for (const auto &[field, edit] : fields) {
        sim::NamedConfig cell = base;
        edit(cell.cfg);
        EXPECT_FALSE(sim::detail::frontEndConfig(cell.cfg) ==
                     sim::detail::frontEndConfig(base.cfg))
            << field << " is not part of the front-end key";

        const trace::TraceBuffer shared = pristine;
        (void)sim::runOne("mix", shared, base);
        const sim::SimResult after_base = sim::runOne("mix", shared, cell);
        const trace::TraceBuffer fresh = pristine;
        const sim::SimResult alone = sim::runOne("mix", fresh, cell);
        expectSameResult(after_base, alone, field);

        // The field changes the recording itself, so sharing the base
        // key's recording could not have gone unnoticed above.
        const auto rec = sim::detail::frontEndRecording(fresh, cell.cfg);
        EXPECT_TRUE(rec->codes != base_rec->codes ||
                    rec->victims != base_rec->victims)
            << field << " does not change the recording";
    }
}

TEST(ReplayCaches, ConcurrentCellsOnAColdTraceBuildOnce)
{
    constexpr std::uint64_t kRecords = 20000;
    const trace::TraceBuffer trace =
        wl::generateTrace(*wl::findWorkload("canneal"), kRecords, 42);
    const sim::NamedConfig nc =
        sized(sim::rmccConfig(sim::SimMode::Timing), kRecords);
    constexpr unsigned kThreads = 4;
    std::vector<sim::SimResult> results(kThreads);
    std::vector<std::thread> threads;
    resetCounts();
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            results[t] = sim::runOne("canneal", trace, nc);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(g_access_calls, trace.size());
    EXPECT_EQ(g_tlb_calls, trace.size());
    for (unsigned t = 1; t < kThreads; ++t)
        expectSameResult(results[t], results[0],
                         "thread " + std::to_string(t));
}

TEST(ReplayCaches, CancelledBuildPublishesNothing)
{
    // The cell's timeout passes while the recording is being built
    // (Hierarchy::access call 10000 stalls past it), so the builder's
    // next cancellation poll throws.  The next cell must build a whole
    // recording of its own and match a run on a fresh copy.
    constexpr std::uint64_t kRecords = 40000;
    const trace::TraceBuffer trace =
        wl::generateTrace(*wl::findWorkload("canneal"), kRecords, 42);
    const sim::NamedConfig nc =
        sized(sim::rmccConfig(sim::SimMode::Timing), kRecords);

    resetCounts();
    setenv("RMCC_CELL_TIMEOUT_MS", "200", 1);
    g_stall_at_call = 10000;
    const auto [cancelled, status] = sim::runCellGuarded("canneal", trace, nc);
    g_stall_at_call = 0;
    unsetenv("RMCC_CELL_TIMEOUT_MS");
    EXPECT_EQ(status.state, sim::CellState::TimedOut);
    EXPECT_GT(g_access_calls, 10000u);
    EXPECT_LT(g_access_calls, trace.size());

    resetCounts();
    const sim::SimResult after = sim::runOne("canneal", trace, nc);
    EXPECT_EQ(g_access_calls, trace.size());
    EXPECT_EQ(g_tlb_calls, trace.size());
    const trace::TraceBuffer fresh = trace;
    expectSameResult(after, sim::runOne("canneal", fresh, nc), "rebuilt");
}

TEST(ReplayCaches, AppendDropsTheMemo)
{
    constexpr std::size_t kRecords = 20000;
    const trace::TraceBuffer full = twoTenantTrace(kRecords + 1);
    trace::TraceBuffer trace(kRecords + 1);
    for (std::size_t i = 0; i < kRecords; ++i) {
        const trace::Record &r = full.records()[i];
        trace.append(r.vaddr, r.is_write, r.inst_gap);
    }
    const sim::NamedConfig nc =
        sized(sim::nonSecureConfig(sim::SimMode::Timing), kRecords);

    resetCounts();
    (void)sim::runOne("mix", trace, nc);
    (void)sim::runOne("mix", trace, nc);
    EXPECT_EQ(g_access_calls, kRecords);

    const trace::Record &last = full.records()[kRecords];
    trace.append(last.vaddr, last.is_write, last.inst_gap);
    resetCounts();
    const sim::SimResult after_append = sim::runOne("mix", trace, nc);
    EXPECT_EQ(g_access_calls, kRecords + 1);
    expectSameResult(after_append, sim::runOne("mix", full, nc),
                     "after append");
}

TEST(ReplayCaches, SimRigRefusesMoreThan32BitBlockNumbers)
{
    sim::SystemConfig cfg = rmccTiming(1000);
    cfg.phys_bytes = (std::uint64_t{1} << 32) * addr::kBlockSize * 2;
    EXPECT_THROW(sim::detail::SimRig rig(cfg), std::invalid_argument);
}

TEST(FrontEndReplay, SkipQuietMatchesByteScan)
{
    // Random code strings of quiet (0) runs between loud codes that
    // next() consumes without reading a miss or victim: runs of 0..40
    // cross the 8-byte scan blocks at every offset, a random max cuts
    // them short, and strings that end quiet put a run at the last
    // code.  The codes vector is exactly sized, so a scan past its end
    // reads a heap redzone under AddressSanitizer.
    using R = sim::detail::FrontEndRecording;
    const std::uint8_t loud[] = {R::kLlcHit, R::kTlbMiss,
                                 R::kTlbMiss | R::kLlcHit};
    util::Rng rng(24);
    std::uint64_t cut = 0, to_end = 0;
    for (int string = 0; string < 2000; ++string) {
        R rec;
        const std::size_t target = rng.nextBelow(120);
        while (rec.codes.size() < target) {
            rec.codes.insert(rec.codes.end(), rng.nextBelow(41), 0);
            rec.codes.push_back(loud[rng.nextBelow(3)]);
        }
        if (rng.nextBool())
            rec.codes.insert(rec.codes.end(), 1 + rng.nextBelow(40), 0);
        rec.codes.shrink_to_fit();

        sim::detail::FrontEndReplay replay(rec);
        std::size_t pos = 0;
        while (pos < rec.codes.size()) {
            const std::size_t left = rec.codes.size() - pos;
            const std::size_t max =
                rng.nextBool(0.7) ? left : rng.nextBelow(left + 1);
            std::size_t expect = 0; // the byte-at-a-time oracle
            while (expect < max && rec.codes[pos + expect] == 0)
                ++expect;
            ASSERT_EQ(replay.skipQuiet(max), expect)
                << "string " << string << " pos " << pos << " max " << max;
            pos += expect;
            cut += expect == max && pos < rec.codes.size() &&
                   rec.codes[pos] == 0;
            to_end += expect > 0 && pos == rec.codes.size();
            if (pos < rec.codes.size() && rec.codes[pos] != 0) {
                ASSERT_FALSE(replay.quietNext());
                replay.next();
                ++pos;
            }
        }
    }
    EXPECT_GT(cut, 100u);
    EXPECT_GT(to_end, 100u);
}

TEST(FrontEndReplay, SkipToMemoryEventMatchesByteScan)
{
    // Runs of codes that send nothing to memory (no LLC miss, no
    // writeback) between codes that do, as in SkipQuietMatchesByteScan.
    // Every stop must leave next() reading the stopping record with its
    // own miss and victim, which the skipped records never consume.
    using R = sim::detail::FrontEndRecording;
    const std::uint8_t skipped[] = {0, R::kLlcHit, R::kTlbMiss,
                                    R::kTlbMiss | R::kLlcHit};
    const std::uint8_t events[] = {
        R::kLlcMiss,
        R::kWriteback,
        R::kWriteback | R::kLlcHit,
        R::kWriteback | R::kLlcMiss,
        R::kTlbMiss | R::kLlcMiss,
        R::kTlbMiss | R::kWriteback};
    util::Rng rng(25);
    std::uint64_t cut = 0, to_end = 0;
    std::uint64_t stop_offsets[8] = {};
    for (int string = 0; string < 2000; ++string) {
        R rec;
        const std::size_t target = rng.nextBelow(120);
        const auto run = [&](std::size_t n) {
            for (std::size_t k = 0; k < n; ++k)
                rec.codes.push_back(skipped[rng.nextBelow(4)]);
        };
        while (rec.codes.size() < target) {
            run(rng.nextBelow(41));
            const std::uint8_t e = events[rng.nextBelow(6)];
            if ((e & R::kLevelMask) == R::kLlcMiss)
                rec.misses.push_back(static_cast<std::uint32_t>(
                    rec.codes.size()));
            if ((e & R::kWriteback) != 0)
                rec.victims.push_back(static_cast<std::uint32_t>(
                    rec.codes.size() + 1000));
            rec.codes.push_back(e);
        }
        if (rng.nextBool())
            run(1 + rng.nextBelow(40));
        rec.codes.shrink_to_fit();

        sim::detail::FrontEndReplay replay(rec);
        std::size_t pos = 0;
        while (pos < rec.codes.size()) {
            const std::size_t left = rec.codes.size() - pos;
            const std::size_t max =
                rng.nextBool(0.7) ? left : rng.nextBelow(left + 1);
            std::size_t expect = 0; // the byte-at-a-time oracle
            while (expect < max &&
                   (rec.codes[pos + expect] & (R::kLlcMiss | R::kWriteback)) ==
                       0)
                ++expect;
            ASSERT_EQ(replay.skipToMemoryEvent(max), expect)
                << "string " << string << " pos " << pos << " max " << max;
            pos += expect;
            if (pos == rec.codes.size()) {
                to_end += expect > 0;
                break;
            }
            const std::uint8_t code = rec.codes[pos];
            if ((code & (R::kLlcMiss | R::kWriteback)) == 0) {
                ++cut; // max ended inside a run
                replay.next();
                ++pos;
                continue;
            }
            if (expect < max)
                ++stop_offsets[expect % 8];
            const sim::detail::FrontEndOutcome o = replay.next();
            ASSERT_EQ(o.llc_miss, (code & R::kLevelMask) == R::kLlcMiss);
            ASSERT_EQ(o.writeback, (code & R::kWriteback) != 0);
            if (o.llc_miss) {
                ASSERT_EQ(o.miss, addr::blockBase(pos));
            }
            if (o.writeback) {
                ASSERT_EQ(o.victim, addr::blockBase(pos + 1000));
            }
            ++pos;
        }
    }
    EXPECT_GT(cut, 100u);
    EXPECT_GT(to_end, 100u);
    for (const std::uint64_t n : stop_offsets)
        EXPECT_GT(n, 10u);
}

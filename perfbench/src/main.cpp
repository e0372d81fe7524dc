/**
 * @file
 * RMCC simulator benchmark.
 *
 * Workloads (see perfbench/README.md for why each was chosen):
 *   replay-canneal / replay-pagerank / replay-omnetpp
 *       one sim::runTiming replay of the workload's trace in the paper's
 *       main configuration (Morphable + RMCC, Table I timing preset),
 *       repeated for --seconds;
 *   sweep-grid
 *       sim::runSuite over the 11 suite workloads x {non-secure, SC-64,
 *       Morphable, RMCC}, once in Timing and once in Functional mode.
 *
 * With --trace 0 the program prints the end-to-end metrics; with
 * --trace 1 it replays through the traced mirror (traced_replay.hpp) and
 * prints the per-layer metrics.  Every simulated cell is checked: the
 * SimResult digest against the pinned file for the pinned seed, and the
 * invariants on every seed.  The last line of stdout is one JSON object.
 *
 * Usage:
 *   rmcc_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  --digests FILE [--write-digests FILE]
 *   rmcc_perfbench --workload prepare-graph
 *       builds the shared-graph cache and exits.
 */
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "crypto/dispatch.hpp"
#include "host_probe.hpp"
#include "sim/experiments.hpp"
#include "trace/trace_buffer.hpp"
#include "traced_replay.hpp"
#include "util/stats.hpp"
#include "workloads/graph.hpp"
#include "workloads/registry.hpp"

extern char **environ;

using namespace rmcc;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace
{

/** Fewest timed repetitions of a run. */
constexpr std::size_t kMinReps = 3;

/** Seed whose cell digests are pinned in the digests file. */
constexpr std::uint64_t kPinnedSeed = 42;

/** The shared graph's build parameters (wl::sharedGraph()). */
constexpr std::uint64_t kGraphVertices = 4 * 1024 * 1024;
constexpr std::uint64_t kGraphEdges = 24 * 1024 * 1024;
constexpr double kGraphZipf = 0.75;
constexpr std::uint64_t kGraphSeed = 0x5eed6a7;

/** Environment variables the benchmark itself pins. */
const char *const kPinnedEnv[] = {"RMCC_JOBS", "RMCC_GRAPH_CACHE_DIR"};

struct Options
{
    std::string workload;
    std::uint64_t seed = kPinnedSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string write_digests;
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Return the heap's free pages to the kernel.  run.py makes glibc keep
 * freed memory, so that replays do not page-fault their rigs anew; called
 * once after set-up, this keeps the set-up's freed traces and graphs out
 * of the replays' peak RSS, which would otherwise depend on where the
 * first rig happens to land in the heap.
 */
void
releaseFreeMemory()
{
    malloc_trim(0);
}

/**
 * Peak RSS so far, without the host probe's tables (resident from the
 * start of the run, so the peak is theirs plus the simulator's).  Runs
 * read it after their first repetition, so it does not depend on how
 * many repetitions fit in --seconds (the suite runner's per-thread arenas
 * grow a little with every extra grid run).
 */
double
peakRssMb(const HostProbe &probe)
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0 -
           static_cast<double>(probe.bytes()) / (1024.0 * 1024.0);
}

/** FNV-1a over bytes, or over whole 64-bit words for bulk data. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 1099511628211ULL;
    }
    void word(std::uint64_t w) { h = (h ^ w) * 1099511628211ULL; }
    void f64(double d)
    {
        std::uint64_t w = 0;
        std::memcpy(&w, &d, sizeof w);
        word(w);
    }
    template <class T> void words(const std::vector<T> &v)
    {
        static_assert(sizeof(T) == 8 || sizeof(T) == 4);
        word(v.size());
        for (const T &x : v) {
            std::uint64_t w = 0;
            std::memcpy(&w, &x, sizeof x);
            word(w);
        }
    }
};

/** Digest of everything a cell measured. */
std::uint64_t
digestOf(const sim::SimResult &r)
{
    Fnv f;
    for (const auto &[name, value] : r.stats.all()) {
        f.bytes(name.data(), name.size() + 1);
        f.f64(value);
    }
    f.word(r.instructions);
    f.f64(r.elapsed_ns);
    return f.h;
}

std::uint64_t
traceHash(const trace::TraceBuffer &t)
{
    static_assert(sizeof(trace::Record) == 8);
    Fnv f;
    f.words(t.records());
    return f.h;
}

std::uint64_t
graphHash(const wl::Graph &g)
{
    Fnv f;
    f.word(g.num_vertices);
    f.words(g.offsets);
    f.words(g.edges);
    return f.h;
}

/**
 * Cell bookkeeping: every simulated (mode, workload, config) cell is
 * checked against the invariants, against its pinned digest on the
 * pinned seed, and against every earlier run of the same cell in this
 * process (runTiming, the suite runner and the traced mirror must all
 * agree bit for bit).
 */
class Checker
{
  public:
    Checker(std::map<std::string, std::uint64_t> pins, bool check_pins)
        : pins_(std::move(pins)), check_pins_(check_pins)
    {
    }

    /** Check one cell; returns true when it passed. */
    bool cell(const std::string &key, const sim::SimResult &r,
              const sim::CellStatus &st)
    {
        ++attempted_;
        std::string why;
        const util::StatSet &s = r.stats;
        const std::uint64_t d = digestOf(r);
        if (!st.ok())
            why = std::string("cell ") + sim::cellStateName(st.state) +
                  ": " + st.error;
        else if (s.get("mc.reads") != s.get("sim.llc_misses"))
            why = "mc.reads != sim.llc_misses";
        else if (s.get("memo.l0_hit_all") > s.get("memo.l0_lookups_all") ||
                 s.get("memo.l0_hit_on_miss") >
                     s.get("memo.l0_lookups_on_miss"))
            why = "memo hits exceed memo lookups";
        else if (const auto it = seen_.find(key);
                 it != seen_.end() && it->second != d)
            why = "differs from an earlier run of the same cell";
        else if (check_pins_) {
            const auto pin = pins_.find(key);
            if (pin == pins_.end())
                why = "no pinned digest";
            else if (pin->second != d)
                why = "digest does not match the pinned digest";
        }
        seen_.emplace(key, d);
        if (why.empty())
            return true;
        fail(key + ": " + why);
        return false;
    }

    /**
     * Count one failure: of a cell already passed to cell(), or of a
     * set-up check (trace or graph determinism).
     */
    void fail(const std::string &why)
    {
        ++failed_;
        if (failed_ <= 20)
            std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, std::uint64_t> &seen() const
    {
        return seen_;
    }

  private:
    std::map<std::string, std::uint64_t> pins_;
    bool check_pins_;
    std::map<std::string, std::uint64_t> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

std::map<std::string, std::uint64_t>
readDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digests file " + path);
    std::map<std::string, std::uint64_t> pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos)
            throw std::runtime_error("bad digests line: " + line);
        pins[line.substr(0, sp)] =
            std::stoull(line.substr(sp + 1), nullptr, 16);
    }
    return pins;
}

void
writeDigests(const std::string &path, std::uint64_t seed,
             const std::map<std::string, std::uint64_t> &seen)
{
    std::ofstream out(path);
    out << "# SimResult digests (FNV-1a over stats, instructions, "
           "elapsed_ns) of every cell at seed "
        << seed << ".\n# Regenerate with rmcc_perfbench --workload "
                   "sweep-grid --seed "
        << seed << " --write-digests FILE.\n";
    char hex[20];
    for (const auto &[key, d] : seen) {
        std::snprintf(hex, sizeof hex, "%016" PRIx64, d);
        out << key << ' ' << hex << '\n';
    }
    if (!out)
        throw std::runtime_error("cannot write digests file " + path);
}

std::string
cellKey(const sim::SystemConfig &cfg, const std::string &workload,
        const std::string &label)
{
    return std::string(cfg.mode == sim::SimMode::Timing ? "timing/"
                                                         : "functional/") +
           workload + "/" + label;
}

/** The figure grid's four configurations, all on one seed. */
std::vector<sim::NamedConfig>
gridConfigs(sim::SimMode mode, std::uint64_t seed)
{
    std::vector<sim::NamedConfig> v = {
        sim::nonSecureConfig(mode),
        sim::baselineConfig(mode, ctr::SchemeKind::SC64),
        sim::baselineConfig(mode, ctr::SchemeKind::Morphable),
        sim::rmccConfig(mode)};
    for (sim::NamedConfig &nc : v)
        nc.cfg.seed = seed;
    return v;
}

/** Indices into gridConfigs(). */
enum GridCol : std::size_t
{
    kNonSecure = 0,
    kSc64 = 1,
    kMorphable = 2,
    kRmcc = 3
};

/** Fig 13 geomeans (perf normalised to non-secure) of one timing grid. */
struct Fig13
{
    double sc64 = 0, morphable = 0, rmcc = 0;

    bool ordered() const
    {
        return 1.0 > rmcc && rmcc > morphable && morphable > sc64;
    }
};

Fig13
fig13Of(const std::vector<sim::SuiteRow> &rows)
{
    std::vector<double> sc, mo, rm;
    for (const sim::SuiteRow &row : rows) {
        const double base = row.results[kNonSecure].perf();
        if (base <= 0.0)
            continue;
        sc.push_back(row.results[kSc64].perf() / base);
        mo.push_back(row.results[kMorphable].perf() / base);
        rm.push_back(row.results[kRmcc].perf() / base);
    }
    return {util::geomean(sc), util::geomean(mo), util::geomean(rm)};
}

/** Named metric with unit, in report order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

// --- set-up ---------------------------------------------------------------

/** The shared graph, loaded from the on-disk cache. */
wl::Graph
loadGraph()
{
    return wl::Graph::powerLawCached(kGraphVertices, kGraphEdges, kGraphZipf,
                                     kGraphSeed);
}

/**
 * Set-up reps: K cached graph loads (when timed) and K generations of
 * every trace the workload needs, each load and each generation rep timed
 * between host probes.  Generation must be deterministic and the loaded
 * graph must equal wl::sharedGraph(); both are checked outside the timed
 * units.  The first rep's traces are kept when asked for.
 */
struct Setup
{
    std::vector<double> graph, generate; //!< Raw CPU seconds per rep.
    double ref_s = 0.0; //!< The workload's set-up on the reference host.
    std::vector<std::optional<trace::TraceBuffer>> traces;
};

Setup
runSetup(const std::vector<const wl::Workload *> &wls,
         const std::vector<std::size_t> &lengths, std::uint64_t seed,
         unsigned reps, bool time_graph, bool graph_in_setup,
         bool keep_traces, HostProbe &probe, Checker &check)
{
    Setup s;
    if (time_graph || graph_in_setup) {
        // Build the on-disk cache once, untimed: set-up measures the
        // cached load every process pays, never the one-time rebuild.
        loadGraph();
        RefClock clock(probe);
        std::optional<wl::Graph> g;
        for (unsigned k = 0; k < reps; ++k) {
            g.reset();
            s.graph.push_back(clock.time([&] { g.emplace(loadGraph()); }));
        }
        const std::uint64_t h = graphHash(*g);
        g.reset();
        if (h != graphHash(wl::sharedGraph()))
            check.fail("cached graph load differs from wl::sharedGraph()");
        if (graph_in_setup)
            s.ref_s += clock.refSeconds();
    }
    const std::size_t n = wls.size() * lengths.size();
    s.traces.resize(n);
    std::vector<std::uint64_t> hashes(n, 0);
    RefClock clock(probe);
    for (unsigned k = 0; k < reps; ++k) {
        std::vector<trace::TraceBuffer> made;
        made.reserve(n);
        s.generate.push_back(clock.time([&] {
            for (std::size_t i = 0; i < n; ++i)
                made.push_back(wl::generateTrace(*wls[i / lengths.size()],
                                                 lengths[i % lengths.size()],
                                                 seed));
        }));
        for (std::size_t i = 0; i < n; ++i) {
            const std::string &name = wls[i / lengths.size()]->name;
            const std::uint64_t h = traceHash(made[i]);
            if (made[i].size() != lengths[i % lengths.size()])
                check.fail(name + ": trace shorter than requested");
            if (k == 0) {
                hashes[i] = h;
                if (keep_traces)
                    s.traces[i].emplace(std::move(made[i]));
            } else if (h != hashes[i]) {
                check.fail(name + ": trace generation not deterministic");
            }
        }
    }
    s.ref_s += clock.refSeconds();
    return s;
}

// --- per-layer metrics from ledgers ------------------------------------

/** Per-layer host-time figures derived from an aggregate ledger. */
struct LayerTimes
{
    const Ledger &l;
    double overhead; //!< Ticks of one empty span.
    double replays;  //!< Replays aggregated in l.

    double ns(std::uint64_t ticks) const
    {
        return static_cast<double>(ticks) * l.nsPerTick();
    }
    /** Span time net of the timer's own cost, in ns. */
    double net(Layer k) const
    {
        const auto i = static_cast<std::size_t>(k);
        return (static_cast<double>(l.ticks[i]) -
                overhead * static_cast<double>(l.calls[i])) *
               l.nsPerTick();
    }
    double perCall(Layer k) const
    {
        const auto c = l.calls[static_cast<std::size_t>(k)];
        return c ? net(k) / static_cast<double>(c) : 0.0;
    }
    double perRecord(double total_ns) const
    {
        return l.records ? total_ns / static_cast<double>(l.records) : 0.0;
    }
    double calls(Layer k) const
    {
        return static_cast<double>(l.calls[static_cast<std::size_t>(k)]) /
               replays;
    }
    /** Loop time outside every timed call, in ns. */
    double loopOther() const
    {
        std::uint64_t spans = 0;
        for (std::size_t k = 0; k < kLayers; ++k)
            if (k != static_cast<std::size_t>(Layer::Warmup))
                spans += l.ticks[k];
        return ns(l.loop_ticks) - ns(spans);
    }
    double preconditionNs() const
    {
        return ns(l.precondition_ticks) -
               overhead *
                   static_cast<double>(
                       l.calls[static_cast<std::size_t>(Layer::Warmup)]) *
                   l.nsPerTick();
    }
};

/** Modelled counts of a set of RMCC timing cells (ratios of sums). */
void
modelledCounts(const std::vector<const TracedRun *> &runs,
               std::size_t measured_records, std::vector<Metric> &out)
{
    double llc = 0, writes = 0, reads = 0, l0_miss = 0, hits = 0,
           lookups = 0, ovf = 0, dram = 0, inst = 0, elapsed = 0,
           row_hits = 0, dram_all = 0, recs = 0;
    for (const TracedRun *t : runs) {
        const util::StatSet &s = t->result.stats;
        llc += s.get("sim.llc_misses");
        writes += s.get("mc.writes");
        reads += s.get("mc.reads");
        l0_miss += s.get("ctr.l0_miss");
        hits += s.get("memo.l0_hit_all");
        lookups += s.get("memo.l0_lookups_all");
        ovf += s.get("ovf.count");
        dram += s.get("dram.total");
        inst += static_cast<double>(t->result.instructions);
        elapsed += t->result.elapsed_ns;
        row_hits += static_cast<double>(t->dram.row_hits);
        dram_all += static_cast<double>(t->dram.reads + t->dram.writes);
        recs += static_cast<double>(measured_records);
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.push_back({"cache.llc_miss_per_krec", 1000 * ratio(llc, recs),
                   "1/krec"});
    out.push_back({"mc.writes_per_krec", 1000 * ratio(writes, recs),
                   "1/krec"});
    out.push_back({"mc.ctr_miss_rate", ratio(l0_miss, reads), "ratio"});
    out.push_back({"core.memo_hit_rate", ratio(hits, lookups), "ratio"});
    const double n_runs =
        static_cast<double>(std::max<std::size_t>(runs.size(), 1));
    out.push_back({"counters.overflows", ovf / n_runs, "count"});
    out.push_back({"dram.accesses_per_krec", 1000 * ratio(dram, recs),
                   "1/krec"});
    out.push_back({"dram.row_hit_rate", ratio(row_hits, dram_all), "ratio"});
    out.push_back({"sim.perf_inst_per_ns", ratio(inst, elapsed), "inst/ns"});
}

/**
 * Host-time shares of one replay next to the starting gprof profile
 * (canneal with RMCC, 3M records).  Printed for the reader; not JSON.
 */
void
printProfile(const std::string &name, const LayerTimes &rm,
             const LayerTimes &ns, double generate_s)
{
    const double reps = rm.replays;
    const double gen = generate_s * 1e9;
    const double total = gen + rm.ns(rm.l.total_ticks) / reps;
    const double dram = ns.perCall(Layer::McRead) * rm.calls(Layer::McRead);
    const double read = rm.net(Layer::McRead) / reps;
    struct Row
    {
        const char *layer;
        double ns;
        const char *gprof;
    };
    const Row rows[] = {
        {"workloads: trace generation", gen, "~12% (generator+append)"},
        {"sim: rig construction", rm.ns(rm.l.rig_ticks) / reps, "-"},
        {"sim: precondition, engine calls", rm.net(Layer::Warmup) / reps,
         "in memo/engine ~8%"},
        {"sim: precondition, rest",
         rm.preconditionNs() / reps - rm.net(Layer::Warmup) / reps,
         "in caches ~37%"},
        {"cache: Tlb+Hierarchy+prefetch",
         (rm.net(Layer::Tlb) + rm.net(Layer::Hierarchy) +
          rm.net(Layer::CachePrefetch)) /
             reps,
         "~37% (incl. counter cache)"},
        {"address: translate", rm.net(Layer::Translate) / reps, "-"},
        {"mc: read, DRAM model share", std::min(dram, read), "~3% (DRAM)"},
        {"mc: read, secure path share", read - std::min(dram, read),
         "16.5% Morphable read + memo + ~4% SecureMc"},
        {"mc: write", rm.net(Layer::McWrite) / reps, "-"},
        {"mc: prefetchRead", rm.net(Layer::McPrefetch) / reps, "-"},
        {"sim: CpuModel", rm.net(Layer::Cpu) / reps, "-"},
        {"sim: loop, untimed", rm.loopOther() / reps, "-"},
    };
    std::printf("profile: %s host time per replay (generation + "
                "runTiming), traced\n",
                name.c_str());
    std::printf("  %-34s %10s %7s   %s\n", "layer", "ms", "share",
                "gprof (canneal, RMCC, 3M rec)");
    for (const Row &r : rows)
        std::printf("  %-34s %10.2f %6.1f%%   %s\n", r.layer, r.ns / 1e6,
                    100.0 * r.ns / total, r.gprof);
}

/** The per-layer host-time metrics of a traced replay set. */
void
layerMetrics(const LayerTimes &rm, const LayerTimes &ns,
             std::vector<Metric> &out)
{
    out.push_back({"address.translate_ns", rm.perCall(Layer::Translate),
                   "ns"});
    out.push_back({"cache.tlb_ns", rm.perCall(Layer::Tlb), "ns"});
    out.push_back({"cache.hierarchy_ns", rm.perCall(Layer::Hierarchy),
                   "ns"});
    out.push_back({"cache.prefetch_ns", rm.perCall(Layer::CachePrefetch),
                   "ns"});
    out.push_back({"sim.cpu_ns", rm.perRecord(rm.net(Layer::Cpu)), "ns"});
    out.push_back({"mc.read_ns", rm.perCall(Layer::McRead), "ns"});
    out.push_back({"mc.read_calls", rm.calls(Layer::McRead), "count"});
    out.push_back({"mc.write_ns", rm.perCall(Layer::McWrite), "ns"});
    out.push_back({"mc.write_calls", rm.calls(Layer::McWrite), "count"});
    out.push_back({"mc.prefetch_ns", rm.perCall(Layer::McPrefetch), "ns"});
    out.push_back({"dram.read_ns", ns.perCall(Layer::McRead), "ns"});
    out.push_back({"sim.rig_init_s", rm.ns(rm.l.rig_ticks) / rm.replays / 1e9,
                   "s"});
    out.push_back({"sim.precondition_s",
                   rm.preconditionNs() / rm.replays / 1e9, "s"});
    out.push_back({"core.warmup_ns", rm.perCall(Layer::Warmup), "ns"});
    out.push_back({"sim.loop_other_ns", rm.perRecord(rm.loopOther()),
                   "ns"});
}

// --- workloads ------------------------------------------------------------

/** Cell times and pool occupancy of suite-runner rows. */
void
runnerMetrics(const std::vector<const std::vector<sim::SuiteRow> *> &grids,
              double wall_s, std::vector<Metric> &out)
{
    std::vector<double> cells;
    for (const auto *rows : grids)
        for (const sim::SuiteRow &row : *rows)
            for (const sim::CellStatus &st : row.statuses)
                cells.push_back(st.elapsed_ms / 1e3);
    double sum = 0.0;
    for (double c : cells)
        sum += c;
    out.push_back({"sim.cell_s_p50", median(cells), "s"});
    out.push_back({"sim.cell_s_max",
                   cells.empty() ? 0.0
                                 : *std::max_element(cells.begin(),
                                                     cells.end()),
                   "s"});
    out.push_back({"sim.pool_busy_frac",
                   sum / (static_cast<double>(sim::suiteJobs()) * wall_s),
                   "ratio"});
}

void
checkRows(const std::vector<sim::SuiteRow> &rows,
          const std::vector<sim::NamedConfig> &cfgs, Checker &check,
          std::vector<bool> *ok)
{
    for (const sim::SuiteRow &row : rows)
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const bool pass =
                check.cell(cellKey(cfgs[c].cfg, row.workload, cfgs[c].label),
                           row.results[c], row.statuses[c]);
            if (ok)
                ok->push_back(pass);
        }
}

/** Fail the still-passing cells of a grid whose Fig 13 order broke. */
void
checkOrder(const Fig13 &f, const std::vector<bool> &ok, Checker &check)
{
    if (f.ordered())
        return;
    char why[160];
    std::snprintf(why, sizeof why,
                  "Fig 13 order broken: RMCC %.4f Morphable %.4f SC-64 %.4f",
                  f.rmcc, f.morphable, f.sc64);
    for (bool pass : ok)
        if (pass)
            check.fail(why);
}

std::vector<Metric>
replayWorkload(const Options &o, const wl::Workload &w, HostProbe &probe,
               Checker &check)
{
    const bool uses_graph = w.name == "pageRank";
    const std::vector<sim::NamedConfig> grid =
        gridConfigs(sim::SimMode::Timing, o.seed);
    const sim::NamedConfig &rmcc = grid[kRmcc];
    const std::size_t records = rmcc.cfg.trace_records;

    Setup setup = runSetup({&w}, {records}, o.seed, 11, o.trace,
                           uses_graph, true, probe, check);
    releaseFreeMemory();
    const trace::TraceBuffer &trace = *setup.traces[0];
    const std::string key = cellKey(rmcc.cfg, w.name, rmcc.label);

    std::vector<Metric> out;
    std::vector<double> untraced;
    double rss_mb = 0.0;
    const auto t_meas = Clock::now();
    if (!o.trace) {
        RefClock clock(probe);
        do {
            std::pair<sim::SimResult, sim::CellStatus> cell;
            clock.time(
                [&] { cell = sim::runCellGuarded(w.name, trace, rmcc); });
            check.cell(key, cell.first, cell.second);
            if (clock.units() == 1)
                rss_mb = peakRssMb(probe);
        } while (since(t_meas) < o.seconds || clock.units() < kMinReps);
        std::printf("set-up: median %.4f CPU s raw (graph %.4f, generation "
                    "%.4f), %.4f s on the reference host\n",
                    (uses_graph ? median(setup.graph) : 0.0) +
                        median(setup.generate),
                    median(setup.graph), median(setup.generate), setup.ref_s);
        std::printf("replays: %zu, median %.4f CPU s raw, %.4f s on the "
                    "reference host; probe median %.4f CPU s\n",
                    clock.units(), clock.rawSeconds(), clock.refSeconds(),
                    clock.probeSeconds());
        const double sim_s = clock.refSeconds();
        out = {
            {"records_per_s", static_cast<double>(trace.size()) / sim_s,
             "1/s"},
            {"setup_s", setup.ref_s, "s"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
        return out;
    }

    // Traced run: untraced and traced replays alternate, so the overhead
    // ratio compares neighbours in time.
    const double overhead = emptySpanTicks();
    std::vector<double> traced;
    Ledger agg;
    std::optional<TracedRun> last;
    std::vector<double> probes;
    do {
        probes.push_back(probe.run());
        const auto t0 = Clock::now();
        auto [r, st] = sim::runCellGuarded(w.name, trace, rmcc);
        untraced.push_back(since(t0));
        check.cell(key, r, st);
        last.emplace(tracedTiming(w.name, trace, rmcc.cfg));
        check.cell(key, last->result, sim::CellStatus{});
        traced.push_back(last->ledger.total_ns / 1e9);
        agg.add(last->ledger);
    } while (since(t_meas) < o.seconds || traced.size() < kMinReps);

    const sim::NamedConfig &nsc = grid[kNonSecure];
    const TracedRun ns = tracedTiming(w.name, trace, nsc.cfg);
    check.cell(cellKey(nsc.cfg, w.name, nsc.label), ns.result,
               sim::CellStatus{});

    // The same workload through the one-workload suite runner: Fig 13
    // ratios, cell times, and a cross-check of the runner against the
    // direct replays above.
    const auto t_row = Clock::now();
    std::vector<sim::SuiteRow> rows = {sim::runWorkload(w, grid)};
    const double row_s = since(t_row);
    checkRows(rows, grid, check, nullptr);
    const Fig13 f = fig13Of(rows);

    const LayerTimes rm{agg, overhead, static_cast<double>(traced.size())};
    const LayerTimes nst{ns.ledger, overhead, 1.0};
    printProfile(w.name, rm, nst, median(setup.generate));
    layerMetrics(rm, nst, out);
    const double tr = median(traced), un = median(untraced);
    const double n_rec = static_cast<double>(trace.size());
    out.push_back({"sim.trace_overhead_frac", tr / un - 1.0, "ratio"});
    out.push_back({"sim.traced_records_per_s", n_rec / tr, "1/s"});
    out.push_back({"sim.untraced_records_per_s", n_rec / un, "1/s"});
    out.push_back({"workloads.graph_s", median(setup.graph), "s"});
    out.push_back({"workloads.generate_s", median(setup.generate), "s"});
    out.push_back({"host.probe_s", median(probes), "s"});
    runnerMetrics({&rows}, row_s, out);
    modelledCounts({&*last}, records - rmcc.cfg.warmup_records, out);
    out.push_back({"sim.fig13_geomean_rmcc", f.rmcc, "ratio"});
    out.push_back({"sim.fig13_geomean_morphable", f.morphable, "ratio"});
    return out;
}

std::vector<Metric>
sweepWorkload(const Options &o, HostProbe &probe, Checker &check)
{
    const std::vector<sim::NamedConfig> timing =
        gridConfigs(sim::SimMode::Timing, o.seed);
    const std::vector<sim::NamedConfig> functional =
        gridConfigs(sim::SimMode::Functional, o.seed);
    const std::vector<wl::Workload> &suite = wl::workloadSuite();
    std::vector<const wl::Workload *> wls;
    for (const wl::Workload &w : suite)
        wls.push_back(&w);
    const std::size_t t_len = timing.front().cfg.trace_records;
    const std::size_t f_len = functional.front().cfg.trace_records;

    // Set-up: the graph and every trace the two grids replay, outside the
    // runner (which generates its own copies inside its wall time).
    std::optional<Setup> setup = runSetup(wls, {t_len, f_len}, o.seed, 3,
                                          true, true, o.trace, probe, check);
    const double setup_s = setup->ref_s;
    const double graph_s = median(setup->graph);
    const double generate_s = median(setup->generate);
    std::vector<trace::TraceBuffer> timing_traces;
    if (o.trace)
        for (std::size_t i = 0; i < wls.size(); ++i)
            timing_traces.push_back(std::move(*setup->traces[2 * i]));
    setup.reset(); // the runner regenerates; free before it runs
    releaseFreeMemory();

    const double records_per_grid =
        static_cast<double>(suite.size() * timing.size()) *
        static_cast<double>(t_len + f_len);

    std::vector<Metric> out;
    // The grids run on RMCC_JOBS threads, so they are timed on the wall
    // clock, still between probes.
    RefClock clock(probe, true);
    double last_s = 0.0;
    double rss_mb = 0.0;
    std::vector<sim::SuiteRow> rows_t, rows_f;
    const auto t_meas = Clock::now();
    do {
        last_s = clock.time([&] {
            rows_t = sim::runSuite(timing);
            rows_f = sim::runSuite(functional);
        });
        std::vector<bool> ok;
        checkRows(rows_t, timing, check, &ok);
        checkOrder(fig13Of(rows_t), ok, check);
        checkRows(rows_f, functional, check, nullptr);
        if (clock.units() == 1)
            rss_mb = peakRssMb(probe);
    } while (!o.trace &&
             (since(t_meas) < o.seconds || clock.units() < kMinReps));

    if (!o.trace) {
        const double grid_s = clock.refSeconds();
        out = {
            {"records_per_s", records_per_grid / grid_s, "1/s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
        return out;
    }

    // Traced run: every timing trace replayed traced under RMCC and
    // non-secure, plus an untraced RMCC replay for the overhead ratio.
    const double overhead = emptySpanTicks();
    Ledger agg_rm, agg_ns;
    std::vector<TracedRun> runs;
    double untraced = 0.0;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        const wl::Workload &w = *wls[i];
        const trace::TraceBuffer &tr = timing_traces[i];
        const auto t0 = Clock::now();
        auto [r, st] = sim::runCellGuarded(w.name, tr, timing[kRmcc]);
        untraced += since(t0);
        check.cell(cellKey(timing[kRmcc].cfg, w.name, timing[kRmcc].label),
                   r, st);
        runs.push_back(tracedTiming(w.name, tr, timing[kRmcc].cfg));
        check.cell(cellKey(timing[kRmcc].cfg, w.name, timing[kRmcc].label),
                   runs.back().result, sim::CellStatus{});
        agg_rm.add(runs.back().ledger);
        const TracedRun ns = tracedTiming(w.name, tr, timing[kNonSecure].cfg);
        check.cell(cellKey(timing[kNonSecure].cfg, w.name,
                           timing[kNonSecure].label),
                   ns.result, sim::CellStatus{});
        agg_ns.add(ns.ledger);
    }
    const double n = static_cast<double>(wls.size());
    const LayerTimes rm{agg_rm, overhead, n};
    const LayerTimes nst{agg_ns, overhead, n};
    printProfile("sweep-grid timing traces (mean per workload)", rm, nst,
                 generate_s * static_cast<double>(t_len) /
                     static_cast<double>(t_len + f_len) / n);
    layerMetrics(rm, nst, out);
    const double traced = agg_rm.total_ns / 1e9;
    const double recs = static_cast<double>(agg_rm.records);
    out.push_back({"sim.trace_overhead_frac", traced / untraced - 1.0,
                   "ratio"});
    out.push_back({"sim.traced_records_per_s", recs / traced, "1/s"});
    out.push_back({"sim.untraced_records_per_s", recs / untraced, "1/s"});
    out.push_back({"workloads.graph_s", graph_s, "s"});
    out.push_back({"workloads.generate_s", generate_s, "s"});
    out.push_back({"host.probe_s", clock.probeSeconds(), "s"});
    runnerMetrics({&rows_t, &rows_f}, last_s, out);
    std::vector<const TracedRun *> ptrs;
    for (const TracedRun &t : runs)
        ptrs.push_back(&t);
    modelledCounts(ptrs, t_len - timing[kRmcc].cfg.warmup_records, out);
    const Fig13 f = fig13Of(rows_t);
    out.push_back({"sim.fig13_geomean_rmcc", f.rmcc, "ratio"});
    out.push_back({"sim.fig13_geomean_morphable", f.morphable, "ratio"});
    return out;
}

// --- command line ---------------------------------------------------------

/** Refuse any RMCC_* variable that would change what is measured. */
void
checkEnvironment()
{
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("RMCC_", 0) != 0)
            continue;
        const std::string name = kv.substr(0, kv.find('='));
        if (std::find_if(std::begin(kPinnedEnv), std::end(kPinnedEnv),
                         [&](const char *p) { return name == p; }) ==
            std::end(kPinnedEnv))
            throw std::runtime_error(name + " is set; run through "
                                            "perfbench/run.py, which "
                                            "clears RMCC_* variables");
    }
    const char *dir = std::getenv("RMCC_GRAPH_CACHE_DIR");
    std::printf("env: RMCC_JOBS -> %u jobs, RMCC_GRAPH_CACHE_DIR=%s, "
                "crypto %s; every other RMCC_* unset: obs, recovery, "
                "tenancy, spill, journal off; cell retry/timeout at "
                "defaults\n",
                sim::suiteJobs(), dir ? dir : "(unset: /tmp)",
                crypto::hwAesActive() ? "hw" : "sw");
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--digests")
            o.digests = v;
        else if (a == "--write-digests")
            o.write_digests = v;
        else
            throw std::invalid_argument("unknown argument " + a);
    }
    return o;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        checkEnvironment();
        if (o.workload == "prepare-graph") {
            loadGraph();
            std::printf("shared-graph cache ready\n");
            return 0;
        }
        const bool check_pins =
            o.seed == kPinnedSeed && o.write_digests.empty();
        Checker check(check_pins ? readDigests(o.digests)
                                 : std::map<std::string, std::uint64_t>{},
                      check_pins);
        std::printf("workload: %s, seed %" PRIu64 " (%s), %s run\n",
                    o.workload.c_str(), o.seed,
                    check_pins ? "digests and invariants checked"
                               : "invariants checked",
                    o.trace ? "traced" : "untraced");

        HostProbe probe;
        std::vector<Metric> out;
        const std::map<std::string, std::string> replays = {
            {"replay-canneal", "canneal"},
            {"replay-pagerank", "pageRank"},
            {"replay-omnetpp", "omnetpp"}};
        if (const auto it = replays.find(o.workload); it != replays.end())
            out = replayWorkload(o, *wl::findWorkload(it->second), probe,
                                 check);
        else if (o.workload == "sweep-grid")
            out = sweepWorkload(o, probe, check);
        else
            throw std::invalid_argument("unknown workload '" + o.workload +
                                        "'");
        if (!o.write_digests.empty())
            writeDigests(o.write_digests, o.seed, check.seen());

        std::string json = "{\"correct\": ";
        json += check.failed() == 0 ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(check.attempted());
        json += ", \"failed\": " + std::to_string(check.failed());
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < out.size(); ++i) {
            const Metric &m = out[i];
            std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                    jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        }
        json += "}}";
        std::printf("cells: %" PRIu64 " attempted, %" PRIu64 " failed\n",
                    check.attempted(), check.failed());
        std::printf("%s\n", json.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}

#include "traced_replay.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "address/page_mapper.hpp"
#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "core/rmcc_engine.hpp"
#include "counters/tree.hpp"
#include "dram/ddr4.hpp"
#include "mc/recovery.hpp"
#include "mc/secure_mc.hpp"
#include "sim/cpu_model.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench
{

using namespace rmcc;

namespace
{

/** Cheap monotonic tick source: the TSC on x86, else steady_clock ns. */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/** Run f() and charge its ticks to one layer of the ledger. */
template <class F>
inline auto
timed(Ledger &l, Layer layer, F &&f)
{
    const auto k = static_cast<std::size_t>(layer);
    ++l.calls[k];
    const std::uint64_t t0 = ticks();
    if constexpr (std::is_void_v<decltype(f())>) {
        f();
        l.ticks[k] += ticks() - t0;
    } else {
        auto r = f();
        l.ticks[k] += ticks() - t0;
        return r;
    }
}

/** RMCC configuration of a run, as the simulator derives it. */
core::RmccConfig
effectiveRmccConfig(const sim::SystemConfig &cfg)
{
    core::RmccConfig rc = cfg.rmcc_cfg;
    rc.enabled = cfg.rmcc && cfg.secure;
    rc.budget.epoch_accesses = std::max<std::uint64_t>(
        50000, std::min<std::uint64_t>(rc.budget.epoch_accesses,
                                       cfg.trace_records / 8));
    return rc;
}

/** The simulated system, assembled from the public component classes. */
struct Rig
{
    addr::PageMapper mapper;
    cache::Tlb tlb;
    cache::Hierarchy hier;
    ctr::IntegrityTree tree;
    core::RmccEngine engine;
    dram::Ddr4 dram;
    mc::SecureMc mc;
    addr::CounterValue init_max = 0;

    explicit Rig(const sim::SystemConfig &cfg)
        : mapper(cfg.page_mode, cfg.phys_bytes, cfg.seed ^ 0x9a9a),
          tlb(cfg.tlb_entries, cfg.tlb_assoc, mapper.pageSize()),
          hier(cfg.l1, cfg.l2, cfg.llc),
          tree(cfg.scheme, cfg.phys_bytes / addr::kBlockSize),
          engine(effectiveRmccConfig(cfg), tree), dram(cfg.dram),
          mc(mc::McConfig{cfg.secure, cfg.counter_cache_bytes,
                          cfg.counter_cache_assoc, cfg.lat,
                          mc::recoveryConfigFromEnv()},
             tree, engine, dram)
    {
        util::Rng rng(cfg.seed ^ 0xc0c0);
        if (cfg.secure)
            tree.randomInit(rng, cfg.counter_init_mean);
        init_max = tree.observedMax();
    }
};

/** The lifetime warm-up pass, with the RMCC engine calls timed. */
void
precondition(Rig &rig, const sim::SystemConfig &cfg,
             const trace::TraceSource &trace, Ledger &l)
{
    if (!(cfg.secure && cfg.rmcc && cfg.precondition))
        return;
    rig.engine.setBudgetPools(cfg.precondition_budget_fraction *
                              static_cast<double>(cfg.trace_records));
    const unsigned cov0 = rig.tree.level(0).coverage();
    std::uint64_t ops = 0;
    cache::Hierarchy scratch(cfg.l1, cfg.l2, cfg.llc);
    const auto cur = trace.cursor();
    for (trace::TraceWindow w = cur->next(); w.count != 0; w = cur->next()) {
        for (std::size_t k = 0; k < w.count; ++k) {
            const trace::Record &rec = w.data[k];
            const addr::Addr paddr = rig.mapper.translate(rec.vaddr);
            const cache::HierarchyResult h =
                scratch.access(paddr, rec.is_write);
            if (h.llc_miss) {
                const addr::BlockId blk = addr::blockOf(paddr);
                timed(l, Layer::Warmup,
                      [&] { rig.engine.onReadCounterUse(0, blk); });
                if (ops % 8 == 0)
                    timed(l, Layer::Warmup, [&] {
                        rig.engine.onReadCounterUse(1, blk / cov0);
                    });
                ++ops;
                rig.engine.onDramAccess();
            }
            if (h.memory_writeback) {
                const addr::BlockId blk =
                    addr::blockOf(*h.memory_writeback);
                timed(l, Layer::Warmup,
                      [&] { rig.engine.onWriteCounter(0, blk); });
                if (ops % 8 == 0)
                    timed(l, Layer::Warmup, [&] {
                        rig.engine.onWriteCounter(1, blk / cov0);
                    });
                ++ops;
                rig.engine.onDramAccess();
            }
        }
    }
    rig.engine.setBudgetPools(0.0);
}

} // namespace

void
Ledger::add(const Ledger &o)
{
    for (std::size_t k = 0; k < kLayers; ++k) {
        ticks[k] += o.ticks[k];
        calls[k] += o.calls[k];
    }
    rig_ticks += o.rig_ticks;
    precondition_ticks += o.precondition_ticks;
    loop_ticks += o.loop_ticks;
    total_ticks += o.total_ticks;
    total_ns += o.total_ns;
    records += o.records;
}

double
emptySpanTicks()
{
    constexpr int kBatches = 7;
    constexpr int kSpans = 200000;
    std::vector<double> per_span;
    for (int b = 0; b < kBatches; ++b) {
        std::uint64_t sum = 0;
        for (int i = 0; i < kSpans; ++i) {
            const std::uint64_t t0 = ticks();
            sum += ticks() - t0;
        }
        per_span.push_back(static_cast<double>(sum) / kSpans);
    }
    std::sort(per_span.begin(), per_span.end());
    return per_span[per_span.size() / 2];
}

// The loop below mirrors sim::runTiming statement for statement; the
// benchmark rejects any replay whose stats differ from runTiming's.
TracedRun
tracedTiming(const std::string &workload, const trace::TraceSource &trace,
             const sim::SystemConfig &cfg)
{
    if (trace.plan() != nullptr)
        throw std::invalid_argument("traced replay: spilled traces are "
                                    "not supported");
    if (cfg.tenancy.tenants != 1 || cfg.mode != sim::SimMode::Timing)
        throw std::invalid_argument("traced replay: single-tenant timing "
                                    "runs only");
    TracedRun out;
    Ledger &l = out.ledger;
    const auto steady0 = std::chrono::steady_clock::now();
    const std::uint64_t t_start = ticks();

    Rig rig(cfg);
    l.rig_ticks = ticks() - t_start;

    const std::uint64_t t_pre = ticks();
    precondition(rig, cfg, trace, l);
    l.precondition_ticks = ticks() - t_pre;

    const std::uint64_t t_loop = ticks();
    sim::CpuModel cpu(cfg.cpu);
    util::StatSet side;
    const util::StatHandle h_tlb_miss = side.handle("tlb.misses");
    const util::StatHandle h_llc_miss = side.handle("sim.llc_misses");
    const util::StatHandle h_llc_wb = side.handle("sim.llc_writebacks");
    util::StatSet mc_at_warm, side_at_warm;
    std::uint64_t insts_at_warm = 0;
    double time_at_warm = 0.0;
    const double llc_lookup_ns =
        cfg.l1.latency_ns + cfg.l2.latency_ns + cfg.llc.latency_ns;

    const auto cur = trace.cursor();
    trace::TraceWindow w = cur->next();
    addr::Addr next_paddr =
        w.count != 0 ? timed(l, Layer::Translate, [&] {
            return rig.mapper.translate(w.data[0].vaddr);
        })
                     : 0;
    std::size_t i = 0;
    for (; w.count != 0; w = cur->next()) {
        for (std::size_t k = 0; k < w.count; ++k, ++i) {
            const trace::Record &rec = w.data[k];
            if (i == cfg.warmup_records) {
                mc_at_warm = rig.mc.stats();
                side_at_warm = side;
                insts_at_warm = cpu.instructions();
                time_at_warm = cpu.now();
            }
            const double issue = timed(
                l, Layer::Cpu, [&] { return cpu.advance(rec.inst_gap); });
            if (!timed(l, Layer::Tlb,
                       [&] { return rig.tlb.access(rec.vaddr); }))
                side.inc(h_tlb_miss);
            const addr::Addr paddr = next_paddr;
            const trace::Record *nxt =
                k + 1 < w.count ? &w.data[k + 1] : w.ahead;
            if (nxt != nullptr) {
                next_paddr = timed(l, Layer::Translate, [&] {
                    return rig.mapper.translate(nxt->vaddr);
                });
                timed(l, Layer::CachePrefetch,
                      [&] { rig.hier.prefetch(next_paddr); });
                timed(l, Layer::McPrefetch,
                      [&] { rig.mc.prefetchRead(next_paddr); });
            }
            const cache::HierarchyResult h = timed(l, Layer::Hierarchy, [&] {
                return rig.hier.access(paddr, rec.is_write);
            });
            if (h.llc_miss) {
                side.inc(h_llc_miss);
                const mc::McReadResult r = timed(l, Layer::McRead, [&] {
                    return rig.mc.read(paddr, issue + llc_lookup_ns);
                });
                timed(l, Layer::Cpu,
                      [&] { cpu.recordLongLatency(r.done_ns); });
            } else if (h.hit_level == 3) {
                timed(l, Layer::Cpu, [&] {
                    cpu.recordLongLatency(issue + h.hit_latency_ns);
                });
            }
            if (h.memory_writeback) {
                side.inc(h_llc_wb);
                const double stall = timed(l, Layer::McWrite, [&] {
                    return rig.mc.write(*h.memory_writeback, cpu.now());
                });
                timed(l, Layer::Cpu, [&] { cpu.stallUntil(stall); });
            }
        }
    }
    const double end = timed(l, Layer::Cpu, [&] { return cpu.finish(); });
    l.loop_ticks = ticks() - t_loop;
    l.records = i;

    sim::SimResult &res = out.result;
    res.workload = workload;
    res.stats = rig.mc.stats().diff(mc_at_warm);
    res.stats.merge(side.diff(side_at_warm));
    res.instructions = cpu.instructions() - insts_at_warm;
    res.elapsed_ns = end - time_at_warm;
    res.stats.set("time.elapsed_ns", res.elapsed_ns);
    out.dram = rig.dram.aggregateStats();
    res.stats.set("dram.row_hits", static_cast<double>(out.dram.row_hits));
    res.stats.set("dram.row_conflicts",
                  static_cast<double>(out.dram.row_conflicts));
    if (cfg.rmcc && cfg.secure)
        res.stats.set("rmcc.avg_coverage_l0",
                      rig.engine.averageCoverage(0));
    if (cfg.secure) {
        res.stats.set("ctr.observed_max",
                      static_cast<double>(rig.tree.observedMax()));
        res.stats.set("ctr.init_max", static_cast<double>(rig.init_max));
        res.stats.set("ctr.overflows_total",
                      static_cast<double>(rig.tree.totalOverflows()));
        res.stats.set("ovf.stall_ns", rig.mc.overflowEngine().totalStallNs());
    }
    l.total_ticks = ticks() - t_start;
    l.total_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - steady0)
                     .count();
    return out;
}

} // namespace perfbench

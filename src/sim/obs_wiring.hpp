/**
 * @file
 * Internal: observability wiring shared by both simulators — the cell
 * naming scheme and the standard probe catalog registered over a SimRig.
 *
 * Both runTiming() and runFunctional() create their run registry with
 * makeCellRegistry(), register the probes here, attach the
 * registry to the secure MC, and tick() it once per trace record.  All
 * probes are pure reads, so sampling cannot perturb the simulated
 * results (the RMCC_OBS=off bit-identity guarantee).
 */
#ifndef RMCC_SIM_OBS_WIRING_HPP
#define RMCC_SIM_OBS_WIRING_HPP

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "crypto/dispatch.hpp"
#include "obs/registry.hpp"
#include "sim/rig.hpp"
#include "trace/trace_source.hpp"
#include "util/checksum.hpp"

namespace rmcc::sim::detail
{

inline const char *
schemeShortName(ctr::SchemeKind k)
{
    switch (k) {
    case ctr::SchemeKind::SgxMonolithic: return "sgx";
    case ctr::SchemeKind::SC64: return "sc64";
    case ctr::SchemeKind::Morphable: return "morphable";
    }
    return "scheme";
}

/**
 * Stable per-(workload, configuration) cell label: a readable prefix plus
 * a hash of cellKey(cfg), so any two cells that differ in any input get
 * distinct obs files.
 */
inline std::string
cellName(const std::string &workload, const SystemConfig &cfg)
{
    std::string label = workload;
    label += cfg.mode == SimMode::Timing ? "-timing" : "-functional";
    if (!cfg.secure)
        label += "-nonsecure";
    else {
        label += "-";
        label += schemeShortName(cfg.scheme);
        if (cfg.rmcc)
            label += "-rmcc";
    }
    char hash[20];
    std::snprintf(hash, sizeof hash, "-%08llx",
                  static_cast<unsigned long long>(
                      util::checksum64(cellKey(cfg)) & 0xffffffffULL));
    return obs::sanitizeCellName(label + hash);
}

/** The cell's run registry; null (and no name built) with obs off. */
inline std::unique_ptr<obs::Registry>
makeCellRegistry(const std::string &workload, const SystemConfig &cfg)
{
    return obs::makeRunRegistry([&] { return cellName(workload, cfg); });
}

/**
 * Register the standard probe catalog over a rig.  front is the measured
 * loop's replay of the trace's front-end recording, which the llc.*
 * probes read: the rig runs no caches of its own.  now_fn supplies the
 * current simulated time for the DRAM-backlog probe (the two simulators
 * keep time differently).  io, when non-null, is the replay cursor's I/O
 * counter block (spilled traces only) and adds the spill probes.
 * Everything referenced must outlive the registry; probe lambdas capture
 * raw pointers/references.
 */
inline void
registerRigProbes(obs::Registry &o, SimRig &rig, const FrontEndReplay &front,
                  const trace::TraceSource &trace,
                  std::function<double()> now_fn,
                  const trace::TraceIoStats *io = nullptr)
{
    // Memoization table + candidate monitor (L0; the headline curves).
    core::RmccEngine &eng = rig.engine;
    if (eng.enabled() && eng.memoLevels() > 0) {
        o.addProbe("memo.lookups",
                   [&eng] { return double(eng.table(0).lookups()); });
        o.addProbe("memo.hits", [&eng] {
            return double(eng.table(0).groupHits() +
                          eng.table(0).recentHits());
        });
        o.addProbe("memo.valid_groups",
                   [&eng] { return double(eng.table(0).validGroups()); });
        o.addProbe("memo.max_in_table",
                   [&eng] { return double(eng.table(0).maxInTable()); });
        o.addProbe("monitor.promotions",
                   [&eng] { return double(eng.groupInsertions(0)); });
        o.addProbe("rmcc.read_updates",
                   [&eng] { return double(eng.readUpdates(0)); });
        o.addRate("memo.hit_rate", "memo.hits", "memo.lookups");
    }

    // Counter overflows and the integrity tree.
    ctr::IntegrityTree &tree = rig.tree;
    o.addProbe("ovf.total",
               [&tree] { return double(tree.totalOverflows()); });
    o.addProbe("ovf.l0", [&tree] {
        return tree.levels() > 0 ? double(tree.overflowsAt(0)) : 0.0;
    });
    o.addProbe("ctr.observed_max",
               [&tree] { return double(tree.observedMax()); });

    // Cache hierarchy + counter cache.
    o.addProbe("llc.accesses",
               [&front] { return double(front.llcAccesses()); });
    o.addProbe("llc.misses",
               [&front] { return double(front.llcMisses()); });
    o.addRate("llc.miss_rate", "llc.misses", "llc.accesses");
    const cache::SetAssocCache &cc = rig.mc.counterCache();
    o.addProbe("ctr_cache.accesses",
               [&cc] { return double(cc.accesses()); });
    o.addProbe("ctr_cache.misses",
               [&cc] { return double(cc.misses()); });
    o.addRate("ctr_cache.miss_rate", "ctr_cache.misses",
              "ctr_cache.accesses");

    // DRAM: work done plus the bus-backlog queue proxy at sample time.
    dram::Ddr4 &dram = rig.dram;
    o.addProbe("dram.accesses",
               [&dram] { return double(dram.totalAccesses()); });
    o.addProbe("dram.queue_ns", [&dram, now_fn = std::move(now_fn)] {
        return dram.busBacklogNs(now_fn());
    });

    // Crypto ops split hw/sw.  Counts are process-global (see
    // CryptoOpCounts); with a parallel suite, concurrent cells mix.
    crypto::setCryptoOpCounting(true);
    o.addProbe("crypto.aes_hw",
               [] { return double(crypto::cryptoOpCounts().aes_hw); });
    o.addProbe("crypto.aes_sw",
               [] { return double(crypto::cryptoOpCounts().aes_sw); });
    o.addProbe("crypto.clmul_hw",
               [] { return double(crypto::cryptoOpCounts().clmul_hw); });
    o.addProbe("crypto.clmul_sw",
               [] { return double(crypto::cryptoOpCounts().clmul_sw); });

    // Recovery datapath (zero-cost when recovery is off: no probes).
    const mc::RecoveryPolicy &rp = rig.mc.recovery();
    if (rp.active()) {
        o.addProbe("recovery.detections", [&rp] {
            return double(rp.stats().detections);
        });
        o.addProbe("recovery.recovered",
                   [&rp] { return double(rp.stats().recovered()); });
        o.addProbe("recovery.unrecoverable", [&rp] {
            return double(rp.stats().unrecoverable);
        });
        o.addProbe("recovery.refetch_attempts", [&rp] {
            return double(rp.stats().refetch_attempts);
        });
        o.addProbe("recovery.values_quarantined", [&rp] {
            return double(rp.stats().values_quarantined);
        });
        o.addProbe("recovery.degraded_reads", [&rp] {
            return double(rp.stats().degraded_reads);
        });
    }

    // Trace health: records refused by the bounded buffer.
    o.addProbe("trace.dropped",
               [&trace] { return double(trace.dropped()); });

    // Out-of-core replay: window traffic of the spilled-trace cursor
    // (absent entirely for in-RAM traces, keeping their obs output
    // unchanged).
    if (io != nullptr) {
        o.addProbe("trace.windows_served",
                   [io] { return double(io->windows_served); });
        o.addProbe("trace.prefetches",
                   [io] { return double(io->prefetches); });
        o.addProbe("trace.windows_dropped",
                   [io] { return double(io->windows_dropped); });
        o.addProbe("trace.io_wait_ns",
                   [io] { return double(io->wait_ns); });
    }

    // Obs self-diagnostic: epoch rows evicted from the ring so far.
    o.addProbe("obs.epochs_dropped",
               [&o] { return double(o.epochsDropped()); });
}

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_OBS_WIRING_HPP

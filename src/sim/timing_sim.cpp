#include "sim/timing_sim.hpp"

#include <algorithm>

#include "sim/cpu_model.hpp"
#include "sim/obs_wiring.hpp"
#include "sim/rig.hpp"
#include "sim/trace_drive.hpp"

namespace rmcc::sim
{

namespace
{

/** The measured loop of runTiming, over the trace's front-end recording. */
// rmcc-lint: hot-path
SimResult
measuredLoop(const std::string &workload_name,
             const trace::TraceSource &trace, const SystemConfig &cfg,
             detail::SimRig &rig, const detail::FrontEndRecording &recording)
{
    CpuModel cpu(cfg.cpu);
    detail::FrontEndReplay front(recording);

    std::unique_ptr<obs::Registry> obs =
        detail::makeCellRegistry(workload_name, cfg);

    // Windowed iteration (see TraceDrive); invisible to the simulated
    // state.
    detail::TraceDrive drive(trace, obs.get());

    if (obs) {
        detail::registerRigProbes(*obs, rig, front, trace,
                                  [&cpu] { return cpu.now(); },
                                  drive.ioStats());
        rig.mc.attachObs(obs.get());
    }

    detail::FrontEndCounts side, side_at_warm;
    util::StatSet mc_at_warm;
    std::uint64_t insts_at_warm = 0;
    double time_at_warm = 0.0;

    // The hierarchy's cumulative hit latency for an access served by
    // the LLC.
    const double llc_lookup_ns =
        cfg.l1.latency_ns + cfg.l2.latency_ns + cfg.llc.latency_ns;

    // With obs on, every record ticks the registry, so every record
    // takes the per-record path.
    const bool quiet_runs = obs == nullptr;

    // The trace supplies only each record's instruction gap; the front
    // end, physical addresses included, comes from the recording.
    drive.forEachWindow([&](std::size_t first, const trace::Record *recs,
                            std::size_t n) {
        const std::size_t end = first + n;
        std::size_t i = first;
        while (i < end) {
            // Cooperative cancellation: a cell past RMCC_CELL_TIMEOUT_MS
            // aborts here instead of running to the end.
            if ((i & 0x1fff) == 0)
                util::pollCancel();
            if (i == cfg.warmup_records) {
                mc_at_warm = rig.mc.stats();
                side_at_warm = side;
                insts_at_warm = cpu.instructions();
                time_at_warm = cpu.now();
            }
            if (quiet_runs && front.quietNext()) {
                // A run of quiet records only moves the clock: one call,
                // ending at the window's end, the next poll or the
                // warm-up boundary.
                std::size_t stop = std::min(end, (i | 0x1fff) + 1);
                if (cfg.warmup_records > i)
                    stop = std::min<std::size_t>(stop, cfg.warmup_records);
                const std::size_t q = front.skipQuiet(stop - i);
                cpu.advanceRun(recs + (i - first), q);
                i += q;
                continue;
            }

            const double issue = cpu.advance(recs[i - first].inst_gap);
            const detail::FrontEndOutcome h = front.next();
            side.tlb_misses += h.tlb_miss;

            if (h.llc_miss) {
                ++side.llc_misses;
                // One-miss lookahead: the next miss's counter entries
                // are prefetched while this one is served, hiding the
                // counter store's memory stalls.
                addr::Addr ahead = 0;
                if (front.nextMiss(&ahead))
                    rig.mc.prefetchRead(ahead);
                const mc::McReadResult r =
                    rig.mc.read(h.miss, issue + llc_lookup_ns);
                cpu.recordLongLatency(r.done_ns);
            } else if (h.llc_hit) {
                // LLC hits are long enough to occupy the window.
                cpu.recordLongLatency(issue + llc_lookup_ns);
            }
            if (h.writeback) {
                ++side.llc_writebacks;
                const double stall = rig.mc.write(h.victim, cpu.now());
                cpu.stallUntil(stall);
            }
            if (obs)
                obs->tick();
            ++i;
        }
    });
    const double end = cpu.finish();
    if (obs) {
        rig.mc.attachObs(nullptr);
        obs->finish();
    }

    SimResult res;
    res.workload = workload_name;
    res.stats = rig.mc.stats().diff(mc_at_warm);
    side.reportSince(side_at_warm, res.stats);
    res.instructions = cpu.instructions() - insts_at_warm;
    res.elapsed_ns = end - time_at_warm;
    res.stats.set("time.elapsed_ns", res.elapsed_ns);

    const dram::ChannelStats ds = rig.dram.aggregateStats();
    res.stats.set("dram.row_hits", static_cast<double>(ds.row_hits));
    res.stats.set("dram.row_conflicts",
                  static_cast<double>(ds.row_conflicts));

    if (cfg.rmcc && cfg.secure) {
        res.stats.set("rmcc.avg_coverage_l0",
                      rig.engine.averageCoverage(0));
    }
    if (cfg.secure) {
        res.stats.set("ctr.observed_max",
                      static_cast<double>(rig.tree.observedMax()));
        res.stats.set("ctr.init_max", static_cast<double>(rig.init_max));
        res.stats.set("ctr.overflows_total",
                      static_cast<double>(rig.tree.totalOverflows()));
        res.stats.set("ovf.stall_ns",
                      rig.mc.overflowEngine().totalStallNs());
    }
    return res;
}

} // namespace

SimResult
runTiming(const std::string &workload_name,
          const trace::TraceSource &trace, const SystemConfig &cfg)
{
    const std::shared_ptr<const detail::FrontEndRecording> recording =
        detail::frontEndRecording(trace, cfg);
    detail::SimRig rig(cfg);
    detail::preconditionRmcc(rig, cfg, *recording);
    return measuredLoop(workload_name, trace, cfg, rig, *recording);
}

} // namespace rmcc::sim

#include "sim/functional_sim.hpp"

#include "fault/campaign.hpp"
#include "sim/obs_wiring.hpp"
#include "sim/rig.hpp"
#include "sim/trace_drive.hpp"

namespace rmcc::sim
{

SimResult
runFunctional(const std::string &workload_name,
              const trace::TraceSource &trace, const SystemConfig &cfg)
{
    return runFunctional(workload_name, trace, cfg, nullptr);
}

namespace
{

/** The measured loop of runFunctional, over the trace's front-end recording. */
// rmcc-lint: hot-path
SimResult
measuredLoop(const std::string &workload_name,
             const trace::TraceSource &trace, const SystemConfig &cfg,
             fault::FaultCampaign *campaign, ReplayObserver *replay,
             detail::SimRig &rig, const detail::FrontEndRecording &recording)
{
    if (campaign != nullptr && cfg.secure) {
        campaign->bind(rig.tree, &rig.engine);
        rig.mc.attachObserver(campaign->oracle());
    }

    detail::FrontEndReplay front(recording);
    detail::FrontEndCounts side, side_at_warm;
    util::StatSet mc_at_warm;
    std::uint64_t instructions = 0, insts_at_warm = 0;

    // A loosely advancing pseudo-clock keeps the DRAM and overflow-engine
    // substrates in a sane regime; no timing conclusions are drawn from
    // functional runs.
    double fake_now = 0.0;

    std::unique_ptr<obs::Registry> obs =
        detail::makeCellRegistry(workload_name, cfg);

    // The drive walks the source's windows (one covering the whole
    // vector for in-RAM traces; mmap'd spans with next-window prefetch
    // for spilled ones), invisible to the simulated state.
    detail::TraceDrive drive(trace, obs.get());

    if (obs) {
        detail::registerRigProbes(*obs, rig, front, trace,
                                  [&fake_now] { return fake_now; },
                                  drive.ioStats());
        rig.mc.attachObs(obs.get());
    }

    // Physical addresses come from the recording, as in runTiming.
    drive.forEachRecord(
        [&](std::size_t i, const trace::Record &rec) {
            // Cooperative cancellation: a cell past RMCC_CELL_TIMEOUT_MS
            // aborts here instead of running to the end.
            if ((i & 0x1fff) == 0)
                util::pollCancel();
            if (i == cfg.warmup_records) {
                mc_at_warm = rig.mc.stats();
                side_at_warm = side;
                insts_at_warm = instructions;
            }
            instructions += rec.inst_gap + 1;

            const detail::FrontEndOutcome h = front.next();
            side.tlb_misses += h.tlb_miss;
            if (h.llc_miss) {
                ++side.llc_misses;
                // One-miss lookahead, as in runTiming.
                addr::Addr ahead = 0;
                if (front.nextMiss(&ahead))
                    rig.mc.prefetchRead(ahead);
                const mc::McReadResult r = rig.mc.read(h.miss, fake_now);
                if (replay != nullptr)
                    replay->onRead(rec.vaddr, r, r.done_ns - fake_now);
                fake_now += 20.0;
            }
            if (h.writeback) {
                ++side.llc_writebacks;
                rig.mc.write(h.victim, fake_now);
                if (replay != nullptr)
                    replay->onWrite(rec.vaddr);
                fake_now += 20.0;
            }
            if (campaign != nullptr && cfg.secure)
                campaign->afterRecord();
            if (obs)
                obs->tick();
        });
    if (campaign != nullptr && cfg.secure)
        rig.mc.attachObserver(nullptr);
    if (replay != nullptr)
        replay->onFinish(rig.mc, rig.tree);
    if (obs) {
        rig.mc.attachObs(nullptr);
        obs->finish();
    }

    SimResult res;
    res.workload = workload_name;
    res.stats = rig.mc.stats().diff(mc_at_warm);
    side.reportSince(side_at_warm, res.stats);
    res.instructions = instructions - insts_at_warm;

    // Lifetime/global state snapshots (not windowed).
    if (cfg.rmcc && cfg.secure) {
        res.stats.set("rmcc.avg_coverage_l0",
                      rig.engine.averageCoverage(0));
        res.stats.set("rmcc.group_insertions_l0",
                      static_cast<double>(rig.engine.groupInsertions(0)));
        res.stats.set("rmcc.budget_spent_l0",
                      static_cast<double>(
                          rig.engine.budget(0).totalSpent()));
    }
    if (cfg.secure) {
        res.stats.set("ctr.observed_max",
                      static_cast<double>(rig.tree.observedMax()));
        res.stats.set("ctr.init_max", static_cast<double>(rig.init_max));
        res.stats.set("ctr.overflows_total",
                      static_cast<double>(rig.tree.totalOverflows()));
    }
    return res;
}

} // namespace

SimResult
runFunctional(const std::string &workload_name,
              const trace::TraceSource &trace, const SystemConfig &cfg,
              fault::FaultCampaign *campaign, ReplayObserver *replay)
{
    const std::shared_ptr<const detail::FrontEndRecording> recording =
        detail::frontEndRecording(trace, cfg);
    detail::SimRig rig(cfg);
    detail::preconditionRmcc(rig, cfg, *recording);
    return measuredLoop(workload_name, trace, cfg, campaign, replay, rig,
                        *recording);
}

} // namespace rmcc::sim

/**
 * @file
 * Fig 10 reproduction: memoization hit rate for counter-missing reads,
 * split into hits from Memoized Counter Value Groups and hits from the
 * MRU values of recently evicted groups (Sec IV-C4).  Also reports the
 * Sec VI headline: the fraction of counter misses fully accelerated.
 */
#include "bench_common.hpp"

int
main()
{
    using namespace rmcc;
    auto rmcc_cfg = sim::rmccConfig(sim::SimMode::Functional);
    auto no_recent = rmcc_cfg;
    no_recent.label = "groups-only";
    no_recent.cfg.rmcc_cfg.memo.recent_values = 0;

    std::vector<sim::NamedConfig> configs = {rmcc_cfg, no_recent};
    sim::applyFastEnv(configs);

    util::Table table(
        "Fig 10: memoization hit rate for counter misses",
        {"workload", "group hits", "recent-value hits", "total",
         "groups-only total", "accelerated (Sec VI)"});
    std::vector<double> groups, recent, total, gonly, accel;
    for (const wl::Workload &w : wl::workloadSuite()) {
        const sim::SuiteRow row = sim::runWorkload(w, configs);
        const auto &full = row.results[0].stats;
        const double lookups = full.get("memo.l0_lookups_on_miss");
        const double g =
            lookups ? full.get("memo.l0_group_hit_on_miss") / lookups : 0;
        const double r =
            lookups ? full.get("memo.l0_recent_hit_on_miss") / lookups
                    : 0;
        groups.push_back(g);
        recent.push_back(r);
        total.push_back(g + r);
        gonly.push_back(row.results[1].memoHitRateOnMiss());
        accel.push_back(row.results[0].acceleratedMissRate());
        table.addRow(w.name,
                     {g * 100, r * 100, (g + r) * 100,
                      gonly.back() * 100, accel.back() * 100},
                     1);
        std::fputs(("fig10: " + w.name + " done\n").c_str(), stderr);
    }
    table.addRow("mean",
                 {util::mean(groups) * 100, util::mean(recent) * 100,
                  util::mean(total) * 100, util::mean(gonly) * 100,
                  util::mean(accel) * 100},
                 1);
    table.emit("fig10.csv");
    return 0;
}

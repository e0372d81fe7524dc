/**
 * @file
 * Fig 17 reproduction: RMCC performance normalized to Morphable under
 * 15 ns (AES-128) and 22 ns (AES-256) latencies.  The paper reports the
 * improvement growing from 6% to 11% at the higher latency.
 */
#include "bench_common.hpp"

int
main()
{
    using namespace rmcc;
    auto base15 = sim::baselineConfig(sim::SimMode::Timing,
                                      ctr::SchemeKind::Morphable);
    auto rmcc15 = sim::rmccConfig(sim::SimMode::Timing);
    rmcc15.label = "RMCC 15ns AES";
    auto base22 = base15;
    base22.label = "Morphable 22ns";
    base22.cfg.lat = mc::LatencyConfig::aes256();
    auto rmcc22 = rmcc15;
    rmcc22.label = "RMCC 22ns AES";
    rmcc22.cfg.lat = mc::LatencyConfig::aes256();

    std::vector<sim::NamedConfig> configs = {base15, rmcc15, base22,
                                             rmcc22};
    sim::applyFastEnv(configs);

    util::Table table(
        "Fig 17: RMCC perf normalized to Morphable, by AES latency",
        {"workload", "15ns AES", "22ns AES"});
    std::vector<double> r15, r22;
    for (const wl::Workload &w : wl::workloadSuite()) {
        const sim::SuiteRow row = sim::runWorkload(w, configs);
        r15.push_back(row.results[1].perf() / row.results[0].perf());
        r22.push_back(row.results[3].perf() / row.results[2].perf());
        table.addRow(w.name, {r15.back(), r22.back()});
        std::fputs(("fig17: " + w.name + " done\n").c_str(), stderr);
    }
    table.addRow("geomean",
                 {util::geomean(r15), util::geomean(r22)});
    table.emit("fig17.csv");
    return 0;
}

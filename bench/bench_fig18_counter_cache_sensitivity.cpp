/**
 * @file
 * Fig 18 reproduction: RMCC performance normalized to Morphable under
 * 128 KB, 256 KB, and 512 KB counter caches.  The paper reports 6%,
 * 5.4%, and 5.0% improvements: bigger caches shrink but do not erase
 * RMCC's benefit.
 */
#include "bench_common.hpp"

int
main()
{
    using namespace rmcc;
    std::vector<sim::NamedConfig> configs;
    for (const std::uint64_t kb : {128, 256, 512}) {
        auto base = sim::baselineConfig(sim::SimMode::Timing,
                                        ctr::SchemeKind::Morphable);
        base.label = "Morphable " + std::to_string(kb) + "KB";
        base.cfg.counter_cache_bytes = kb * 1024;
        auto rmcc_nc = sim::rmccConfig(sim::SimMode::Timing);
        rmcc_nc.label = "RMCC " + std::to_string(kb) + "KB";
        rmcc_nc.cfg.counter_cache_bytes = kb * 1024;
        configs.push_back(base);
        configs.push_back(rmcc_nc);
    }
    sim::applyFastEnv(configs);

    util::Table table(
        "Fig 18: RMCC perf normalized to Morphable, by counter cache",
        {"workload", "128KB", "256KB", "512KB"});
    std::vector<std::vector<double>> cols(3);
    for (const wl::Workload &w : wl::workloadSuite()) {
        const sim::SuiteRow row = sim::runWorkload(w, configs);
        std::vector<double> vals;
        for (int k = 0; k < 3; ++k) {
            vals.push_back(row.results[2 * k + 1].perf() /
                           row.results[2 * k].perf());
            cols[static_cast<std::size_t>(k)].push_back(vals.back());
        }
        table.addRow(w.name, vals);
        std::fputs(("fig18: " + w.name + " done\n").c_str(), stderr);
    }
    table.addRow("geomean", {util::geomean(cols[0]),
                             util::geomean(cols[1]),
                             util::geomean(cols[2])});
    table.emit("fig18.csv");
    return 0;
}

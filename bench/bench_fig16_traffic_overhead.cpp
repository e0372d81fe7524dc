/**
 * @file
 * Fig 16 reproduction: memory traffic overhead of RMCC over Morphable
 * Counters under the 1% per-level budgets, split into the L0-table and
 * L1-table contributions.  Also reports the Sec IV-D2 system-max growth.
 */
#include "bench_common.hpp"

int
main()
{
    using namespace rmcc;
    auto base = sim::baselineConfig(sim::SimMode::Functional,
                                    ctr::SchemeKind::Morphable);
    auto l0_only = sim::rmccConfig(sim::SimMode::Functional);
    l0_only.label = "RMCC-L0";
    l0_only.cfg.rmcc_cfg.memo_levels = 1;
    auto full = sim::rmccConfig(sim::SimMode::Functional);
    std::vector<sim::NamedConfig> configs = {base, l0_only, full};
    sim::applyFastEnv(configs);

    util::Table table(
        "Fig 16: traffic overhead of RMCC vs Morphable (1%+1% budgets)",
        {"workload", "L0 memoization", "L1 memoization", "total",
         "sysmax growth"});
    std::vector<double> l0s, l1s, tots, growth;
    for (const wl::Workload &w : wl::workloadSuite()) {
        const sim::SuiteRow row = sim::runWorkload(w, configs);
        const double b = row.results[0].dramAccesses();
        const double l0 =
            b > 0 ? row.results[1].dramAccesses() / b - 1.0 : 0.0;
        const double tot =
            b > 0 ? row.results[2].dramAccesses() / b - 1.0 : 0.0;
        l0s.push_back(l0);
        l1s.push_back(tot - l0);
        tots.push_back(tot);
        const double bmax = row.results[0].stats.get("ctr.observed_max");
        growth.push_back(
            bmax > 0
                ? row.results[2].stats.get("ctr.observed_max") / bmax -
                      1.0
                : 0.0);
        table.addRow(w.name,
                     {l0 * 100, (tot - l0) * 100, tot * 100,
                      growth.back() * 100},
                     2);
        std::fputs(("fig16: " + w.name + " done\n").c_str(), stderr);
    }
    table.addRow("mean",
                 {util::mean(l0s) * 100, util::mean(l1s) * 100,
                  util::mean(tots) * 100, util::mean(growth) * 100},
                 2);
    table.emit("fig16.csv");
    return 0;
}

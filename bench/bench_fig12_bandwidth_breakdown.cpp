/**
 * @file
 * Fig 12 reproduction: memory bandwidth utilization under Morphable
 * Counters, broken down into normal data accesses, counter accesses,
 * level-0 overflow re-encryption, and level-1+ overflow re-encryption,
 * normalized to the channel's peak physical bandwidth.
 */
#include "bench_common.hpp"

int
main()
{
    using namespace rmcc;
    std::vector<sim::NamedConfig> configs = {
        sim::baselineConfig(sim::SimMode::Timing,
                            ctr::SchemeKind::Morphable)};
    sim::applyFastEnv(configs);

    util::Table table(
        "Fig 12: bandwidth utilization breakdown under Morphable",
        {"workload", "data", "counters", "L0 overflow", "L1+ overflow",
         "total"});
    std::vector<double> d, c, o0, oh, tot;
    const double peak = configs[0].cfg.dram.peakBytesPerNs();
    for (const wl::Workload &w : wl::workloadSuite()) {
        const sim::SuiteRow row = sim::runWorkload(w, configs);
        const auto &s = row.results[0].stats;
        const double window_ns = row.results[0].elapsed_ns;
        auto util_of = [&](double accesses) {
            return window_ns > 0.0
                       ? accesses * 64.0 / (peak * window_ns)
                       : 0.0;
        };
        d.push_back(util_of(s.get("dram.data_read") +
                            s.get("dram.data_write")));
        c.push_back(util_of(s.get("dram.ctr_read") +
                            s.get("dram.ctr_write")));
        o0.push_back(util_of(s.get("dram.ovf0")));
        oh.push_back(util_of(s.get("dram.ovf_hi")));
        tot.push_back(d.back() + c.back() + o0.back() + oh.back());
        table.addRow(w.name,
                     {d.back() * 100, c.back() * 100, o0.back() * 100,
                      oh.back() * 100, tot.back() * 100},
                     1);
        std::fputs(("fig12: " + w.name + " done\n").c_str(), stderr);
    }
    table.addRow("mean",
                 {util::mean(d) * 100, util::mean(c) * 100,
                  util::mean(o0) * 100, util::mean(oh) * 100,
                  util::mean(tot) * 100},
                 1);
    table.emit("fig12.csv");
    return 0;
}

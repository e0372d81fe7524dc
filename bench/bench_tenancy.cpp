/**
 * @file
 * Multi-tenant interference sweep: interleave N tenants onto one shared
 * controller + counter cache + RMCC memo table and measure what they do
 * to each other — the contention study the single-tenant figures cannot
 * run.
 *
 * Cells:
 *  - solo-<archetype>: each component workload alone on the rig, the
 *    per-tenant latency baseline;
 *  - mixed: the Zipf-skewed mix of kMix's tenants;
 *  - storm: the same mix with a hot-tenant storm forcing an extra
 *    kStormShare of all draws onto tenant 0, run with the fault
 *    campaign's detection oracle attached under per-tenant data-plane
 *    key domains — cross-tenant interference must be a performance
 *    story, never an integrity one.
 *
 * Emits tenancy_tenants.csv (one row per tracked tenant per cell:
 * traffic, memo-hit split, counter-cache occupancy, latency
 * percentiles) and tenancy_interference.csv (per-cell Jain fairness,
 * hot-tenant and victim degradation vs their solo baselines, the
 * observed-system-max counter, and the storm cell's silent-corruption
 * count).
 *
 * Exit status: 0 iff every cell ran and the storm cell's injections
 * were all detected or masked — zero silent corruptions, zero
 * unexpected failures.
 */
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/campaign.hpp"
#include "sim/functional_sim.hpp"
#include "tenancy/mixer.hpp"
#include "tenancy/stats.hpp"
#include "tenancy/tenancy.hpp"
#include "util/env.hpp"
#include "util/zipf.hpp"

using namespace rmcc;

namespace
{

//! Extra fraction of all draws the storm cell forces onto tenant 0.
constexpr double kStormShare = 0.35;

//! The mix: 3 tenants (one per archetype), Zipf 0.99 traffic shares,
//! strict isolation, no memo quota.
const tenancy::TenancyConfig kMix{3, 0.99, tenancy::IsolationMode::Strict,
                                  0};

//! Component archetypes; tenant t runs archetypes[t % 3].  canneal /
//! omnetpp / mcf rather than the GraphBig kernels so the 128 MB shared
//! input graph stays out of a bench that already carries N traces.
const char *const kArchetypes[] = {"canneal", "omnetpp", "mcf"};

struct CellResult
{
    std::string label;
    sim::SimResult sim;
    double jain = 1.0;
    double hot_mean = 0.0;    //!< Tenant 0 mean read latency, ns.
    double victim_mean = 0.0; //!< Tenant 1 mean read latency, ns.
    double hot_share = 0.0;   //!< Tenant 0 observed traffic share.
    std::uint64_t silent = 0;
    std::uint64_t injected = 0;
};

sim::SystemConfig
baseConfig()
{
    sim::SystemConfig cfg = sim::SystemConfig::functionalDefault();
    cfg.rmcc = true;
    if (const auto fast = util::envString("RMCC_FAST");
        fast && (*fast)[0] != '0') {
        cfg.trace_records /= 8;
        cfg.warmup_records /= 8;
    }
    return cfg;
}

/** Mean read latency over the whole replay of one accountant slot. */
double
meanLat(const tenancy::TenantAccountant &acct, std::size_t t)
{
    return t < acct.tracked() ? acct.tenant(t).read_latency.mean() : 0.0;
}

double
readShare(const tenancy::TenantAccountant &acct, std::size_t t)
{
    std::uint64_t total = acct.other().reads;
    for (std::size_t i = 0; i < acct.tracked(); ++i)
        total += acct.tenant(i).reads;
    return total > 0 && t < acct.tracked()
               ? static_cast<double>(acct.tenant(t).reads) /
                     static_cast<double>(total)
               : 0.0;
}

} // namespace

int
main()
{
    std::vector<const wl::Workload *> archetypes;
    for (const char *name : kArchetypes) {
        const wl::Workload *w = wl::findWorkload(name);
        if (w == nullptr)
            util::fatal("bench_tenancy: unknown workload '%s'", name);
        archetypes.push_back(w);
    }

    const sim::SystemConfig base = baseConfig();
    std::ofstream tenants_csv("tenancy_tenants.csv");
    bool first_rows = true;
    std::vector<CellResult> cells;

    // --- Solo baselines: each archetype alone on the rig --------------
    // The accountant's tag shift only has to clear every untagged vaddr
    // (47 bits does), so tenant 0 receives the whole solo stream.
    const sim::TenancyShape solo_shape{1, 47, true, 0};
    std::vector<double> solo_mean(archetypes.size(), 0.0);
    for (std::size_t a = 0; a < archetypes.size(); ++a) {
        const wl::Workload &w = *archetypes[a];
        const wl::TraceHandle trace =
            wl::generateTraceHandle(w, base.trace_records, base.seed);
        tenancy::TenantAccountant acct(solo_shape, 0);
        CellResult cell;
        cell.label = "solo-" + w.name;
        cell.sim = sim::runFunctional(w.name, trace.source(), base,
                                      nullptr, &acct);
        solo_mean[a] = meanLat(acct, 0);
        cell.hot_mean = cell.victim_mean = solo_mean[a];
        cell.hot_share = 1.0;
        acct.writeCsv(tenants_csv, cell.label, first_rows);
        first_rows = false;
        util::logInfo("bench_tenancy: %s done", cell.label.c_str());
        cells.push_back(std::move(cell));
    }

    // --- Mixed and storm cells ----------------------------------------
    bool storm_ok = true;
    for (const double storm_share : {0.0, kStormShare}) {
        tenancy::MixSpec spec;
        spec.cfg = kMix;
        spec.archetypes = archetypes;
        spec.records = base.trace_records;
        spec.component_records =
            base.trace_records / archetypes.size() + 1;
        spec.seed = base.seed;
        spec.storm_share = storm_share;
        const tenancy::TenantMix mix = tenancy::generateMixHandle(spec);

        sim::SystemConfig cfg = base;
        cfg.tenancy.tenants = kMix.tenants;
        cfg.tenancy.tag_shift = mix.tag_shift;
        cfg.tenancy.strict =
            kMix.isolation == tenancy::IsolationMode::Strict;
        cfg.tenancy.memo_quota = kMix.memo_quota;

        CellResult cell;
        cell.label = storm_share > 0.0 ? "storm" : "mixed";
        tenancy::TenantAccountant acct(cfg.tenancy,
                                       tenancy::arenaBlocks(cfg));
        if (storm_share > 0.0) {
            // The adversarial cell doubles as the integrity gate: seeded
            // faults injected while the hot tenant floods the shared
            // counter cache, classified by the oracle under per-tenant
            // data-plane key domains.
            fault::FaultPlan plan;
            plan.injections = 300;
            plan.gap_records = 128;
            plan.seed = 0x7e7a;
            fault::OracleConfig ocfg;
            ocfg.key_domain_shift = tenancy::keyDomainShift(cfg);
            fault::FaultCampaign campaign(plan, ocfg);
            cell.sim = sim::runFunctional(cell.label, mix.handle.source(),
                                          cfg, &campaign, &acct);
            cell.silent = campaign.stats().silent();
            cell.injected = campaign.stats().injected;
            storm_ok = cell.silent == 0 &&
                       campaign.stats().unexpected_failures == 0 &&
                       cell.injected > 0;
        } else {
            cell.sim = sim::runFunctional(cell.label, mix.handle.source(),
                                          cfg, nullptr, &acct);
        }
        cell.jain = acct.jainFairness();
        cell.hot_mean = meanLat(acct, 0);
        cell.victim_mean = meanLat(acct, 1);
        cell.hot_share = readShare(acct, 0);
        acct.writeCsv(tenants_csv, cell.label, first_rows);
        first_rows = false;
        util::logInfo("bench_tenancy: %s done", cell.label.c_str());
        cells.push_back(std::move(cell));
    }
    tenants_csv.close();

    // --- Interference summary -----------------------------------------
    // Degradation = mixed/storm mean read latency over the tenant's solo
    // baseline; tenant 0 runs archetypes[0], tenant 1 archetypes[1].
    const util::ZipfSampler zipf(kMix.tenants, kMix.skew);
    util::Table table(
        "Cross-tenant interference (" + std::to_string(kMix.tenants) +
            " tenants, Zipf " + std::to_string(kMix.skew) + ")",
        {"cell", "jain", "hot lat (ns)", "hot x solo", "victim lat (ns)",
         "victim x solo", "hot share", "observed max", "SILENT"});
    std::ofstream icsv("tenancy_interference.csv");
    icsv << "cell,tenants,jain_fairness,hot_mean_lat_ns,"
            "hot_degradation,victim_mean_lat_ns,victim_degradation,"
            "hot_read_share,hot_expected_share,observed_max,"
            "injected,silent\n";
    for (const CellResult &cell : cells) {
        // Degradation ratios only make sense for the mix cells: a solo
        // cell IS its own baseline.
        const bool solo = cell.label.rfind("solo-", 0) == 0;
        const double hot_deg =
            solo ? 1.0
            : solo_mean[0] > 0.0 ? cell.hot_mean / solo_mean[0]
                                 : 0.0;
        const double victim_deg =
            solo ? 1.0
            : solo_mean[1 % solo_mean.size()] > 0.0
                ? cell.victim_mean / solo_mean[1 % solo_mean.size()]
                : 0.0;
        const double expected_hot =
            cell.label == "storm"
                ? zipf.mass(0) * (1.0 - kStormShare) + kStormShare
            : cell.label == "mixed" ? zipf.mass(0)
                                    : 1.0;
        const double omax = cell.sim.stats.get("ctr.observed_max");
        table.addRow({cell.label, util::fmtDouble(cell.jain),
                      util::fmtDouble(cell.hot_mean),
                      util::fmtDouble(hot_deg),
                      util::fmtDouble(cell.victim_mean),
                      util::fmtDouble(victim_deg),
                      util::fmtPercent(cell.hot_share),
                      util::fmtDouble(omax),
                      std::to_string(cell.silent)});
        icsv << cell.label << ',' << kMix.tenants << ',' << cell.jain
             << ',' << cell.hot_mean << ',' << hot_deg << ','
             << cell.victim_mean << ',' << victim_deg << ','
             << cell.hot_share << ',' << expected_hot << ',' << omax
             << ',' << cell.injected << ',' << cell.silent << '\n';
    }
    icsv.close();
    table.emit();

    if (!storm_ok) {
        std::printf("FAIL: storm cell leaked silent corruptions or "
                    "failed unexpectedly\n");
        return 1;
    }
    std::printf("PASS: per-tenant rows in tenancy_tenants.csv, "
                "interference matrix in tenancy_interference.csv\n");
    return 0;
}

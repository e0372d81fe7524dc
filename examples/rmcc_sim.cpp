/**
 * @file
 * rmcc_sim — command-line driver for the secure-memory simulator.
 *
 * Runs one workload (or the whole suite) under a chosen configuration and
 * prints the measured statistics, so new configurations can be explored
 * without writing code:
 *
 *   rmcc_sim --workload canneal --scheme morphable --rmcc
 *   rmcc_sim --suite --mode functional --budget 0.02 --records 500000
 *   rmcc_sim --workload BFS --scheme sc64 --aes 22
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mc/recovery.hpp"
#include "sim/experiments.hpp"
#include "util/log.hpp"

using namespace rmcc;
using namespace rmcc::sim;

namespace
{

void
usage()
{
    std::puts(
        "rmcc_sim [options]\n"
        "  --workload NAME   one of the 11 paper workloads (or --suite)\n"
        "  --suite           run all 11 workloads\n"
        "  --mode M          timing (default) | functional\n"
        "  --scheme S        morphable (default) | sc64 | monolithic\n"
        "  --rmcc            enable RMCC on top of the scheme\n"
        "  --non-secure      disable memory protection entirely\n"
        "  --records N       trace length (default 800000 timing)\n"
        "  --warmup N        warm-up records (default records/2)\n"
        "  --aes NS          AES latency in ns (default 15)\n"
        "  --budget F        RMCC overhead budget fraction (default 0.01)\n"
        "  --group-size N    memoized group size (default 8)\n"
        "  --counter-cache-kb N   counter cache size (default 128)\n"
        "  --pages P         huge (default) | small\n"
        "  --seed N          experiment seed (default 42)\n"
        "  --verbose         dump every statistic\n"
        "environment:\n"
        "  RMCC_OBS=off|epochs|full    observability (default off):\n"
        "    epochs writes per-cell epoch CSVs + latency histograms,\n"
        "    full adds Chrome-trace JSON (load in Perfetto)\n"
        "  RMCC_OBS_DIR=PATH           output dir (default rmcc-obs)\n"
        "  RMCC_OBS_EPOCH_RECORDS=N    records per epoch (default 10000)\n"
        "  RMCC_CRYPTO_IMPL=auto|hw|sw crypto kernels (default auto):\n"
        "    hw forces AES-NI/PCLMULQDQ (throws without CPU support),\n"
        "    sw forces the T-table/windowed software kernels\n"
        "    (results are identical either way)\n"
        "  RMCC_TRACE_SPILL=off|auto|on  out-of-core traces (default off):\n"
        "    on streams every trace to a checksummed file and replays it\n"
        "    through windowed mmap (bounded RSS, bit-identical results);\n"
        "    auto spills only traces of 8388608 records or more\n"
        "  RMCC_TRACE_DIR=PATH         spill/cache dir (default\n"
        "    /tmp/rmcc_traces); files are keyed by workload fingerprint\n"
        "    and reused across runs when they validate\n"
        "  RMCC_RECOVERY=off|retry|full  self-healing read path (default\n"
        "    off), tuned by RMCC_RECOVERY_RETRIES,\n"
        "    RMCC_RECOVERY_STORM_WINDOW, RMCC_RECOVERY_STORM_THRESHOLD\n"
        "    and RMCC_RECOVERY_DEGRADED_READS (docs/FAULTS.md)\n"
        "  RMCC_LOG_LEVEL=debug|info|warn|error|silent  (default info)");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "canneal";
    bool suite = false, rmcc_on = false, secure = true, verbose = false;
    NamedConfig nc = baselineConfig(SimMode::Timing,
                                    ctr::SchemeKind::Morphable);
    SystemConfig &cfg = nc.cfg;
    bool warmup_set = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                util::fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            workload = next();
        } else if (a == "--suite") {
            suite = true;
        } else if (a == "--mode") {
            const std::string m = next();
            const SystemConfig preset =
                m == "functional" ? SystemConfig::functionalDefault()
                                  : SystemConfig::timingDefault();
            const auto scheme = cfg.scheme;
            cfg = preset;
            cfg.scheme = scheme;
        } else if (a == "--scheme") {
            const std::string s = next();
            if (s == "morphable")
                cfg.scheme = ctr::SchemeKind::Morphable;
            else if (s == "sc64")
                cfg.scheme = ctr::SchemeKind::SC64;
            else if (s == "monolithic")
                cfg.scheme = ctr::SchemeKind::SgxMonolithic;
            else
                util::fatal("unknown scheme %s", s.c_str());
        } else if (a == "--rmcc") {
            rmcc_on = true;
        } else if (a == "--non-secure") {
            secure = false;
        } else if (a == "--records") {
            cfg.trace_records =
                static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
        } else if (a == "--warmup") {
            cfg.warmup_records =
                static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
            warmup_set = true;
        } else if (a == "--aes") {
            cfg.lat.aes_ns = std::strtod(next(), nullptr);
        } else if (a == "--budget") {
            cfg.rmcc_cfg.budget.fraction = std::strtod(next(), nullptr);
        } else if (a == "--group-size") {
            const auto gs =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
            cfg.rmcc_cfg.memo.group_size = gs;
            cfg.rmcc_cfg.memo.groups = 128 / (gs ? gs : 8);
        } else if (a == "--counter-cache-kb") {
            cfg.counter_cache_bytes =
                std::strtoull(next(), nullptr, 10) * 1024;
        } else if (a == "--pages") {
            cfg.page_mode = std::string(next()) == "small"
                                ? addr::PageMode::Small4K
                                : addr::PageMode::Huge2M;
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(next(), nullptr, 10);
        } else if (a == "--verbose") {
            verbose = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            usage();
            util::fatal("unknown option %s", a.c_str());
        }
    }
    cfg.secure = secure;
    cfg.rmcc = rmcc_on && secure;
    cfg.recovery = mc::recoveryConfigFromEnv();
    if (!warmup_set)
        cfg.warmup_records = cfg.trace_records / 2;
    nc.label = !secure ? "non-secure"
                       : ctr::schemeKindName(cfg.scheme) +
                             (cfg.rmcc ? "+RMCC" : "");

    auto run_one = [&](const wl::Workload &w) {
        const wl::TraceHandle trace =
            wl::generateTraceHandle(w, cfg.trace_records, cfg.seed);
        const SimResult r = runOne(w.name, trace.source(), nc);
        std::printf("%-14s [%s]", w.name.c_str(), nc.label.c_str());
        if (cfg.mode == SimMode::Timing)
            std::printf("  perf %.4f inst/ns", r.perf());
        std::printf("  read-lat %.1f ns  ctr-miss %.1f%%  dram %.0f",
                    r.avgReadLatencyNs(), r.counterMissRate() * 100,
                    r.dramAccesses());
        if (cfg.rmcc)
            std::printf("  memo-hit %.1f%%  accel %.1f%%",
                        r.memoHitRateAll() * 100,
                        r.acceleratedMissRate() * 100);
        std::puts("");
        if (verbose)
            printResult(r);
    };

    if (suite) {
        for (const wl::Workload &w : wl::workloadSuite())
            run_one(w);
    } else {
        const wl::Workload *w = wl::findWorkload(workload);
        if (!w)
            util::fatal("unknown workload %s (try --help)",
                        workload.c_str());
        run_one(*w);
    }
    return 0;
}

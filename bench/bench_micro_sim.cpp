/**
 * @file
 * End-to-end simulator replay microbenchmark: generates one suite
 * workload trace and replays it through the timing simulator, reporting
 * host-side throughput (trace records/sec and simulated MC blocks/sec),
 * the crypto-kernel rates under the active dispatch and the forced
 * software path, the observability overhead (replay rate with RMCC_OBS
 * unset vs off vs epochs vs full), and the out-of-core trace engine
 * (spilled windowed-mmap replay vs the in-RAM buffer, with peak RSS).
 * Results are written as machine-readable JSON (BENCH_8.json by
 * default) for the CI perf-smoke job, which fails if RMCC_OBS=off costs
 * more than 2% over the no-obs baseline, if the hardware crypto path
 * fails to engage on an AES-NI runner, or if the spilled replay drops
 * below 0.9x in-RAM.
 *
 * Every A/B gate uses the same median-of-medians protocol: the two
 * modes run as back-to-back pairs with alternating order, one discarded
 * warmup run per mode before the pairs, each side of a pair is the
 * median of three replays, and the median per-pair ratio wins.  Earlier
 * revisions used best-of-two per side, which let one lucky scheduler
 * slot on either side swing the ratio past the gate in both directions
 * (BENCH_6 once reported a -5.9% obs overhead).
 *
 * Knobs (environment):
 *   RMCC_BENCH_RECORDS  trace length (default 1000000)
 *   RMCC_BENCH_REPS     timed replay repetitions (default 3)
 *   RMCC_CRYPTO_IMPL    auto|hw|sw — which crypto path the replay uses
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "crypto/dispatch.hpp"
#include "crypto/otp.hpp"
#include "obs/registry.hpp"
#include "sim/experiments.hpp"
#include "sim/timing_sim.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_source.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Chained AES-128 encryptions per second under the current dispatch. */
double
aesBlocksPerSec()
{
    const crypto::Aes aes = crypto::Aes::fromSeed(1);
    crypto::Block128 b = crypto::makeBlock(1, 2);
    constexpr int kIters = 2000000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i)
        b = aes.encrypt(b);
    const double s = secondsSince(t0);
    // Fold the result into an observable side effect so the chain cannot
    // be optimized away.
    volatile std::uint8_t sink = b[0];
    (void)sink;
    return kIters / s;
}

/** Chained 128-bit carry-less multiplies per second. */
double
clmulOpsPerSec()
{
    crypto::Block128 a = crypto::makeBlock(0x0123456789abcdefULL,
                                           0xfedcba9876543210ULL);
    const crypto::Block128 b =
        crypto::makeBlock(0xdeadbeefULL, 0xcafebabeULL);
    constexpr int kIters = 2000000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
        const crypto::U256 p = crypto::clmul128(a, b);
        a[0] ^= static_cast<std::uint8_t>(p.limb[0]);
    }
    const double s = secondsSince(t0);
    volatile std::uint8_t sink = a[0];
    (void)sink;
    return kIters / s;
}

/** Re-route the crypto dispatch to `impl` for the current process. */
void
forceImpl(const char *impl)
{
    setenv("RMCC_CRYPTO_IMPL", impl, 1);
    crypto::reresolveCryptoDispatch();
}

/** One timed replay; returns host records/sec. */
double
replayOnce(const std::string &name, const trace::TraceSource &trace,
           const sim::SystemConfig &cfg,
           double *mc_blocks_per_run = nullptr)
{
    const auto t0 = Clock::now();
    const sim::SimResult r = sim::runTiming(name, trace, cfg);
    const double s = secondsSince(t0);
    if (mc_blocks_per_run)
        *mc_blocks_per_run =
            r.stats.get("mc.reads") + r.stats.get("mc.writes");
    return static_cast<double>(trace.size()) / s;
}

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Median-of-reps replay throughput (records/sec) under the current
 * environment.  Median (not best or mean) so one scheduler hiccup in
 * either direction cannot swing a mode comparison.
 */
double
replayRecordsPerSec(const std::string &name,
                    const trace::TraceSource &trace,
                    const sim::SystemConfig &cfg, int reps,
                    double *mc_blocks_per_run = nullptr)
{
    std::vector<double> rates;
    rates.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i)
        rates.push_back(replayOnce(name, trace, cfg, mc_blocks_per_run));
    return medianOf(rates);
}

/**
 * Median per-pair throughput ratio measure_b()/measure_a() over `pairs`
 * back-to-back comparisons.  Each measure callback switches its own
 * mode and returns a median-of-N rate; one run per mode is discarded up
 * front as warmup, and the in-pair order alternates so host-side drift
 * cancels instead of biasing whichever mode happens to run later.
 */
double
pairedRatio(const std::function<double()> &measure_a,
            const std::function<double()> &measure_b, int pairs)
{
    measure_a(); // warmup both modes; results discarded
    measure_b();
    std::vector<double> ratios;
    for (int i = 0; i < pairs; ++i) {
        double a, b;
        if (i % 2 == 0) {
            a = measure_a();
            b = measure_b();
        } else {
            b = measure_b();
            a = measure_a();
        }
        ratios.push_back(b / a);
    }
    return medianOf(ratios);
}

/** Point the obs subsystem at `mode` (or unset) for the next replays. */
void
setObsMode(const char *mode, const std::string &dir)
{
    if (mode) {
        setenv("RMCC_OBS", mode, 1);
        setenv("RMCC_OBS_DIR", dir.c_str(), 1);
    } else {
        unsetenv("RMCC_OBS");
        unsetenv("RMCC_OBS_DIR");
    }
    obs::reresolveObs();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_8.json";
    const auto records = static_cast<std::size_t>(
        util::envUnsignedOr("RMCC_BENCH_RECORDS", 1000000));
    const int reps =
        static_cast<int>(util::envUnsignedOr("RMCC_BENCH_REPS", 3));
    const auto bench_t0 = Clock::now();

    // --- Replay: one deterministic suite workload through runTiming.
    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Timing);
    nc.cfg.trace_records = records;
    nc.cfg.warmup_records = records / 2;
    const wl::Workload &w = wl::workloadSuite().front();
    const trace::TraceBuffer trace =
        wl::generateTrace(w, nc.cfg.trace_records, nc.cfg.seed);

    // The replay baseline must not be skewed by an inherited RMCC_OBS.
    setObsMode(nullptr, "");
    sim::runTiming(w.name, trace, nc.cfg); // warm caches + allocator
    double mc_blocks_per_run = 0.0;
    const double rps_baseline = replayRecordsPerSec(
        w.name, trace, nc.cfg, reps, &mc_blocks_per_run);
    const double blocks_per_sec =
        rps_baseline / static_cast<double>(trace.size()) *
        mc_blocks_per_run;

    // --- Observability overhead: off must be within noise of baseline;
    // epochs/full show the cost of sampling and tracing.
    const int pairs = std::max(reps, 7);
    const std::string obs_dir = "rmcc-obs-bench";
    double rps_base_i = 0.0, rps_off = 0.0;
    const double median_ratio = pairedRatio(
        [&] {
            setObsMode(nullptr, "");
            const double r = replayRecordsPerSec(w.name, trace, nc.cfg, 3);
            rps_base_i = std::max(rps_base_i, r);
            return r;
        },
        [&] {
            setObsMode("off", obs_dir);
            const double r = replayRecordsPerSec(w.name, trace, nc.cfg, 3);
            rps_off = std::max(rps_off, r);
            return r;
        },
        pairs);
    setObsMode("epochs", obs_dir);
    const double rps_epochs =
        replayRecordsPerSec(w.name, trace, nc.cfg, reps);
    setObsMode("full", obs_dir);
    const double rps_full =
        replayRecordsPerSec(w.name, trace, nc.cfg, reps);
    setObsMode(nullptr, "");
    std::error_code ec;
    std::filesystem::remove_all(obs_dir, ec);
    const double off_overhead_pct = (1.0 - median_ratio) * 100.0;

    // --- Out-of-core trace engine: the same workload regenerated with
    // RMCC_TRACE_SPILL=on and replayed from the windowed mmap reader,
    // compared pairwise against the in-RAM buffer.  Peak RSS comes from
    // getrusage so runs of the JSON can track the spilled high-water
    // mark (the dedicated large-trace CI job asserts the hard bound).
    const std::string spill_dir = "rmcc-trace-bench";
    setenv("RMCC_TRACE_SPILL", "on", 1);
    setenv("RMCC_TRACE_DIR", spill_dir.c_str(), 1);
    const wl::TraceHandle spilled =
        wl::generateTraceHandle(w, nc.cfg.trace_records, nc.cfg.seed);
    unsetenv("RMCC_TRACE_SPILL");
    unsetenv("RMCC_TRACE_DIR");
    double rps_spilled = 0.0;
    const double spill_ratio = pairedRatio(
        [&] { return replayRecordsPerSec(w.name, trace, nc.cfg, 3); },
        [&] {
            const double r = replayRecordsPerSec(
                w.name, spilled.source(), nc.cfg, 3);
            rps_spilled = std::max(rps_spilled, r);
            return r;
        },
        std::max(reps, 5));
    long long trace_file_bytes = 0;
    if (spilled.spilled()) {
        std::error_code fec;
        const auto sz = std::filesystem::file_size(spilled.path(), fec);
        if (!fec)
            trace_file_bytes = static_cast<long long>(sz);
    }
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    const long peak_rss_kib = ru.ru_maxrss;
    std::filesystem::remove_all(spill_dir, ec);

    // --- Crypto kernels: active dispatch, then forced software.
    const crypto::CpuFeatures cpu = crypto::detectCpuFeatures();
    const auto orig_impl = util::envString("RMCC_CRYPTO_IMPL");
    const bool hw_aes = crypto::hwAesActive();
    const bool hw_clmul = crypto::hwClmulActive();
    const double aes_active = aesBlocksPerSec();
    const double clmul_active = clmulOpsPerSec();
    forceImpl("sw");
    const double aes_sw = aesBlocksPerSec();
    const double clmul_sw = clmulOpsPerSec();
    if (orig_impl)
        setenv("RMCC_CRYPTO_IMPL", orig_impl->c_str(), 1);
    else
        unsetenv("RMCC_CRYPTO_IMPL");
    crypto::reresolveCryptoDispatch();

    const double total_sec = secondsSince(bench_t0);

    std::printf("replay: workload=%s records=%zu reps=%d -> "
                "%.0f records/sec, %.0f mc-blocks/sec\n",
                w.name.c_str(), trace.size(), reps, rps_baseline,
                blocks_per_sec);
    std::printf("obs:    off %.0f rec/s (%+.2f%% vs baseline), "
                "epochs %.0f rec/s, full %.0f rec/s\n",
                rps_off, -off_overhead_pct, rps_epochs, rps_full);
    std::printf("spill:  %.0f rec/s (%.3fx in-RAM), window %llu records, "
                "file %lld bytes, peak rss %ld KiB\n",
                rps_spilled, spill_ratio,
                static_cast<unsigned long long>(trace::kTraceChunkRecords),
                trace_file_bytes, peak_rss_kib);
    std::printf("crypto: aes128 %.2fM blk/s (active%s), %.2fM blk/s (sw); "
                "clmul128 %.2fM op/s (active), %.2fM op/s (sw)\n",
                aes_active / 1e6, hw_aes ? ", hw" : ", sw",
                aes_sw / 1e6, clmul_active / 1e6, clmul_sw / 1e6);
    std::printf("suite wall-clock: %.3f s\n", total_sec);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        util::logError("cannot open %s", out_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_sim\",\n"
                 "  \"replay\": {\n"
                 "    \"workload\": \"%s\",\n"
                 "    \"records\": %zu,\n"
                 "    \"reps\": %d,\n"
                 "    \"records_per_sec\": %.1f,\n"
                 "    \"blocks_per_sec\": %.1f\n"
                 "  },\n"
                 "  \"obs\": {\n"
                 "    \"records_per_sec_baseline\": %.1f,\n"
                 "    \"records_per_sec_off\": %.1f,\n"
                 "    \"records_per_sec_epochs\": %.1f,\n"
                 "    \"records_per_sec_full\": %.1f,\n"
                 "    \"off_overhead_pct\": %.3f\n"
                 "  },\n"
                 "  \"crypto\": {\n"
                 "    \"cpu_aesni\": %s,\n"
                 "    \"cpu_pclmul\": %s,\n"
                 "    \"hw_aes_active\": %s,\n"
                 "    \"hw_clmul_active\": %s,\n"
                 "    \"aes128_blocks_per_sec_active\": %.1f,\n"
                 "    \"aes128_blocks_per_sec_sw\": %.1f,\n"
                 "    \"clmul128_ops_per_sec_active\": %.1f,\n"
                 "    \"clmul128_ops_per_sec_sw\": %.1f\n"
                 "  },\n"
                 "  \"spill\": {\n"
                 "    \"spilled\": %s,\n"
                 "    \"window_records\": %llu,\n"
                 "    \"records_per_sec_spilled\": %.1f,\n"
                 "    \"spilled_vs_inram_ratio\": %.4f,\n"
                 "    \"trace_file_bytes\": %lld,\n"
                 "    \"peak_rss_kib\": %ld\n"
                 "  },\n"
                 "  \"suite_wall_clock_sec\": %.6f\n"
                 "}\n",
                 w.name.c_str(), trace.size(), reps, rps_baseline,
                 blocks_per_sec, rps_base_i, rps_off,
                 rps_epochs, rps_full, off_overhead_pct,
                 cpu.aesni ? "true" : "false",
                 cpu.pclmul ? "true" : "false",
                 hw_aes ? "true" : "false", hw_clmul ? "true" : "false",
                 aes_active, aes_sw, clmul_active, clmul_sw,
                 spilled.spilled() ? "true" : "false",
                 static_cast<unsigned long long>(trace::kTraceChunkRecords),
                 rps_spilled, spill_ratio, trace_file_bytes,
                 peak_rss_kib, total_sec);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

#include "sim/experiments.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "crypto/dispatch.hpp"
#include "obs/registry.hpp"
#include "util/cancel.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace rmcc::sim
{

namespace detail
{
std::function<void(const std::string &, const std::string &)>
    cell_fault_hook;
} // namespace detail

namespace
{

/** Labeled empty result standing in for a cell that never completed. */
SimResult
placeholderResult(const std::string &workload_name, const NamedConfig &nc)
{
    SimResult r;
    r.workload = workload_name;
    r.config_label = nc.label;
    return r;
}

/**
 * The shared trace is generated from the FIRST configuration's record
 * count and seed; any config that disagrees would silently simulate a
 * trace it did not ask for, so refuse the set outright.
 */
void
validateTraceShape(const std::vector<NamedConfig> &configs)
{
    if (configs.empty())
        throw std::invalid_argument(
            "experiment runner: empty configuration set");
    const SystemConfig &first = configs.front().cfg;
    for (const NamedConfig &nc : configs) {
        if (nc.cfg.trace_records != first.trace_records ||
            nc.cfg.seed != first.seed) {
            throw std::invalid_argument(
                "experiment runner: config '" + nc.label +
                "' disagrees with '" + configs.front().label +
                "' on trace shape (trace_records/seed); the shared "
                "trace would not match");
        }
    }
}

/**
 * The one scheduler behind runSuite() and runWorkload().  Phase 1
 * generates one trace per workload; phase 2 runs every (workload, config)
 * cell against its workload's trace.  Both phases are parallelFor()s
 * over one pool of suiteJobs() threads, and every task writes its own
 * preassigned slot, so rows land in suite order whichever worker
 * finishes first.  A pool of one runs both phases inline, in index order.
 */
std::vector<SuiteRow>
runGrid(const std::vector<const wl::Workload *> &workloads,
        const std::vector<NamedConfig> &configs, const ProgressFn &progress)
{
    validateTraceShape(configs);
    // Resolve RMCC_OBS* and the crypto dispatch outside the per-cell
    // guard: a malformed variable is a caller error that must fail
    // loudly, not be recorded as a cell failure.
    obs::session();
    crypto::hwAesActive();

    const std::size_t n_wl = workloads.size();
    const std::size_t n_cfg = configs.size();
    std::vector<SuiteRow> rows(n_wl);
    for (std::size_t i = 0; i < n_wl; ++i) {
        rows[i].workload = workloads[i]->name;
        rows[i].results.resize(n_cfg);
        rows[i].statuses.resize(n_cfg);
    }

    util::ThreadPool pool(suiteJobs());

    // Phase 1: one trace per workload, shared immutably by every
    // configuration of that workload.  A workload whose generator throws
    // loses only its own row.
    std::vector<std::optional<wl::TraceHandle>> traces(n_wl);
    std::vector<std::string> trace_errors(n_wl);
    util::parallelFor(pool, n_wl, [&](std::size_t i) {
        try {
            traces[i].emplace(wl::generateTraceHandle(
                *workloads[i], configs.front().cfg.trace_records,
                configs.front().cfg.seed));
        } catch (const std::exception &e) {
            trace_errors[i] =
                std::string("trace generation failed: ") + e.what();
        } catch (...) {
            trace_errors[i] = "trace generation failed: unknown exception";
        }
    });

    // Phase 2: every (workload, config) cell is an independent task.  The
    // last cell of a workload to finish frees the workload's trace, and
    // with it the trace's front-end recordings (TraceSource::memo), then
    // reports the workload done.
    std::vector<std::atomic<std::size_t>> cells_done(n_wl);
    util::parallelFor(pool, n_wl * n_cfg, [&](std::size_t t) {
        const std::size_t w = t / n_cfg;
        const std::size_t c = t % n_cfg;
        SuiteRow &row = rows[w];
        if (traces[w]) {
            std::tie(row.results[c], row.statuses[c]) =
                runCellGuarded(row.workload, traces[w]->source(),
                               configs[c]);
        } else {
            row.results[c] = placeholderResult(row.workload, configs[c]);
            row.statuses[c].state = CellState::Failed;
            row.statuses[c].error = trace_errors[w];
        }
        if (cells_done[w].fetch_add(1, std::memory_order_acq_rel) + 1 ==
            n_cfg) {
            traces[w].reset();
            if (progress)
                progress(row.workload);
        }
    });
    return rows;
}

} // namespace

const char *
cellStateName(CellState s)
{
    switch (s) {
    case CellState::Ok: return "ok";
    case CellState::Failed: return "failed";
    case CellState::TimedOut: return "timed-out";
    }
    return "?";
}

unsigned
suiteJobs()
{
    return util::ThreadPool::envJobs();
}

SimResult
runOne(const std::string &workload_name, const trace::TraceSource &trace,
       const NamedConfig &nc)
{
    SimResult r = nc.cfg.mode == SimMode::Timing
                      ? runTiming(workload_name, trace, nc.cfg)
                      : runFunctional(workload_name, trace, nc.cfg);
    r.config_label = nc.label;
    return r;
}

std::pair<SimResult, CellStatus>
runCellGuarded(const std::string &workload_name,
               const trace::TraceSource &trace, const NamedConfig &nc)
{
    // Env policy is read outside the guard: a malformed variable is a
    // caller error and must fail loudly, not be recorded as a cell
    // failure.
    const std::uint64_t timeout_ms =
        util::envUnsignedOr("RMCC_CELL_TIMEOUT_MS", 0);

    CellStatus st;
    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsedMs = [&t0] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    try {
        // The simulators poll this scope's token between records, so a
        // cell that overruns RMCC_CELL_TIMEOUT_MS aborts here instead of
        // running to completion.
        util::CancelScope cancel(timeout_ms);
        if (detail::cell_fault_hook)
            detail::cell_fault_hook(workload_name, nc.label);
        SimResult r = runOne(workload_name, trace, nc);
        st.elapsed_ms = elapsedMs();
        // Backstop for cells that finish between polls: the (valid)
        // result is kept but the overrun is still recorded.
        if (timeout_ms > 0 &&
            st.elapsed_ms > static_cast<double>(timeout_ms)) {
            st.state = CellState::TimedOut;
            st.error = "cell took " + std::to_string(st.elapsed_ms) +
                       " ms (RMCC_CELL_TIMEOUT_MS=" +
                       std::to_string(timeout_ms) + ")";
        }
        return {std::move(r), std::move(st)};
    } catch (const util::CancelledError &e) {
        st.state = CellState::TimedOut;
        st.error = e.what();
    } catch (const std::exception &e) {
        st.state = CellState::Failed;
        st.error = e.what();
    } catch (...) {
        st.state = CellState::Failed;
        st.error = "unknown exception";
    }
    st.elapsed_ms = elapsedMs();
    return {placeholderResult(workload_name, nc), std::move(st)};
}

SuiteRow
runWorkload(const wl::Workload &w, const std::vector<NamedConfig> &configs)
{
    return std::move(runGrid({&w}, configs, {}).front());
}

std::vector<SuiteRow>
runSuite(const std::vector<NamedConfig> &configs, const ProgressFn &progress)
{
    // The GraphBig kernels all walk the shared graph; touch it before the
    // fan-out so its (thread-safe, but serializing) lazy build does not
    // stall the first wave of workers.
    wl::sharedGraph();
    std::vector<const wl::Workload *> suite;
    for (const wl::Workload &w : wl::workloadSuite())
        suite.push_back(&w);
    return runGrid(suite, configs, progress);
}

NamedConfig
nonSecureConfig(SimMode mode)
{
    SystemConfig cfg = mode == SimMode::Timing
                           ? SystemConfig::timingDefault()
                           : SystemConfig::functionalDefault();
    cfg.secure = false;
    return {"non-secure", cfg};
}

NamedConfig
baselineConfig(SimMode mode, ctr::SchemeKind scheme)
{
    SystemConfig cfg = mode == SimMode::Timing
                           ? SystemConfig::timingDefault()
                           : SystemConfig::functionalDefault();
    cfg.scheme = scheme;
    cfg.rmcc = false;
    return {ctr::schemeKindName(scheme), cfg};
}

NamedConfig
rmccConfig(SimMode mode)
{
    NamedConfig nc = baselineConfig(mode, ctr::SchemeKind::Morphable);
    nc.label = "RMCC";
    nc.cfg.rmcc = true;
    return nc;
}

void
applyFastEnv(std::vector<NamedConfig> &configs)
{
    const auto fast = util::envString("RMCC_FAST");
    if (!fast || (*fast)[0] == '0')
        return;
    for (NamedConfig &nc : configs) {
        nc.cfg.trace_records /= 8;
        nc.cfg.warmup_records /= 8;
    }
}

} // namespace rmcc::sim

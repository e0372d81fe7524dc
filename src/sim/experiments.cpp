#include "sim/experiments.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "crypto/dispatch.hpp"
#include "mc/recovery.hpp"
#include "obs/registry.hpp"
#include "sim/journal.hpp"
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
 * One suite cell with checkpoint/resume semantics layered over
 * runCellGuarded: a journal hit returns the prior (bit-exact) result, a
 * pending shutdown or missing trace yields a Failed placeholder, and a
 * freshly run Ok cell is checkpointed before the suite moves on.
 */
void
runCellJournaled(SuiteJournal *journal, const std::string &workload,
                 const trace::TraceSource *trace, const NamedConfig &nc,
                 const std::string &no_trace_error, SimResult &result,
                 CellStatus &status)
{
    if (journal && journal->lookup(workload, nc.label, result, status))
        return;
    if (!trace || shutdownRequested()) {
        result = placeholderResult(workload, nc);
        status = CellStatus{};
        status.state = CellState::Failed;
        status.attempts = 0;
        status.error = (!trace && !no_trace_error.empty())
                           ? no_trace_error
                           : "interrupted by shutdown request";
        return;
    }
    std::tie(result, status) = runCellGuarded(workload, *trace, nc);
    if (journal)
        journal->record(workload, nc.label, result, status);
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
    // failure.  Retries rerun the identical cell — a fresh rig from the
    // same seed — so a retried flaky cell reports the same numbers a
    // clean first run would.
    const std::uint64_t retries = std::min<std::uint64_t>(
        util::envUnsignedOr("RMCC_CELL_RETRIES", 1), 16);
    const std::uint64_t timeout_ms =
        util::envUnsignedOr("RMCC_CELL_TIMEOUT_MS", 0);

    CellStatus st;
    for (std::uint64_t attempt = 0; attempt <= retries; ++attempt) {
        if (attempt > 0)
            obs::instantGlobal(obs::InstantKind::CellRetry,
                               workload_name + "/" + nc.label);
        st.attempts = static_cast<unsigned>(attempt + 1);
        const auto t0 = std::chrono::steady_clock::now();
        try {
            // The simulators poll this scope's token between records, so
            // a cell that overruns RMCC_CELL_TIMEOUT_MS (or a SIGTERM'd
            // suite) aborts here instead of running to completion.
            util::CancelScope cancel(shutdownFlag(), timeout_ms);
            if (detail::cell_fault_hook)
                detail::cell_fault_hook(workload_name, nc.label);
            SimResult r = runOne(workload_name, trace, nc);
            st.elapsed_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            st.state = CellState::Ok;
            // Backstop for cells that finish between polls: the (valid)
            // result is kept but the overrun is still recorded.
            if (timeout_ms > 0 &&
                st.elapsed_ms > static_cast<double>(timeout_ms)) {
                st.state = CellState::TimedOut;
                st.error = "cell took " + std::to_string(st.elapsed_ms) +
                           " ms (RMCC_CELL_TIMEOUT_MS=" +
                           std::to_string(timeout_ms) + ")";
                st.attempt_errors.push_back(st.error);
            }
            return {std::move(r), std::move(st)};
        } catch (const util::CancelledError &e) {
            // Neither a timeout nor a shutdown is retried: rerunning a
            // too-slow cell only doubles the overrun, and a shutdown
            // wants the suite drained, not restarted.
            st.elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            st.state =
                e.reason() == util::CancelledError::Reason::Timeout
                    ? CellState::TimedOut
                    : CellState::Failed;
            st.error = e.what();
            st.attempt_errors.push_back(st.error);
            return {placeholderResult(workload_name, nc), std::move(st)};
        } catch (const std::exception &e) {
            st.state = CellState::Failed;
            st.error = e.what();
            st.attempt_errors.push_back(st.error);
        } catch (...) {
            st.state = CellState::Failed;
            st.error = "unknown exception";
            st.attempt_errors.push_back(st.error);
        }
        st.elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    }
    return {placeholderResult(workload_name, nc), std::move(st)};
}

SuiteRow
runWorkload(const wl::Workload &w, const std::vector<NamedConfig> &configs)
{
    validateTraceShape(configs);
    // Resolve RMCC_OBS*, the crypto dispatch, and the recovery policy
    // outside the per-cell guard: a malformed variable is a caller
    // error, not a per-cell failure to retry.
    obs::session();
    crypto::hwAesActive();
    mc::recoveryConfigFromEnv();
    // One-workload benches checkpoint too: each runWorkload() call is
    // its own openFromEnv() invocation, so a bench looping the workload
    // suite gets base, base.1, base.2... matched by call order on resume.
    const std::unique_ptr<SuiteJournal> journal =
        SuiteJournal::openFromEnv(configs);
    SuiteRow row;
    row.workload = w.name;
    row.results.resize(configs.size());
    row.statuses.resize(configs.size());
    // A fully journaled row needs no trace; skip the (expensive)
    // generation so resume is near-instant and shutdown drains fast.
    const bool journaled =
        journal && journal->workloadComplete(w.name, configs);
    std::optional<wl::TraceHandle> trace;
    std::string trace_error;
    if (!journaled && !shutdownRequested()) {
        try {
            trace.emplace(wl::generateTraceHandle(
                w, configs.front().cfg.trace_records,
                configs.front().cfg.seed));
        } catch (const std::exception &e) {
            trace_error =
                std::string("trace generation failed: ") + e.what();
        } catch (...) {
            trace_error = "trace generation failed: unknown exception";
        }
    }
    const trace::TraceSource *tp = trace ? &trace->source() : nullptr;
    const unsigned jobs = suiteJobs();
    if (jobs <= 1 || configs.size() <= 1) {
        for (std::size_t c = 0; c < configs.size(); ++c)
            runCellJournaled(journal.get(), w.name, tp, configs[c],
                             trace_error, row.results[c],
                             row.statuses[c]);
        return row;
    }
    util::ThreadPool pool(jobs);
    util::parallelFor(pool, configs.size(), [&](std::size_t c) {
        runCellJournaled(journal.get(), w.name, tp, configs[c],
                         trace_error, row.results[c], row.statuses[c]);
    });
    return row;
}

std::vector<SuiteRow>
runSuite(const std::vector<NamedConfig> &configs, const ProgressFn &progress)
{
    validateTraceShape(configs);
    obs::session(); // strict RMCC_OBS* parsing fails loudly up front
    crypto::hwAesActive();      // same for RMCC_CRYPTO_IMPL
    mc::recoveryConfigFromEnv(); // and for RMCC_RECOVERY*

    const std::vector<wl::Workload> &suite = wl::workloadSuite();
    const unsigned jobs = suiteJobs();
    const std::unique_ptr<SuiteJournal> journal =
        SuiteJournal::openFromEnv(configs);

    if (jobs <= 1) {
        // Original serial path: workload-major, configs in order.  With
        // no journal and no shutdown this takes exactly the historical
        // cell sequence (same trace, same order, same results).
        std::vector<SuiteRow> rows;
        rows.reserve(suite.size());
        for (const wl::Workload &w : suite) {
            SuiteRow row;
            row.workload = w.name;
            row.results.resize(configs.size());
            row.statuses.resize(configs.size());
            // A fully journaled workload needs no trace at all — resume
            // skips the generation cost along with the simulations.
            const bool journaled =
                journal && journal->workloadComplete(w.name, configs);
            std::optional<wl::TraceHandle> trace;
            std::string trace_error;
            if (!journaled && !shutdownRequested()) {
                try {
                    trace.emplace(wl::generateTraceHandle(
                        w, configs.front().cfg.trace_records,
                        configs.front().cfg.seed));
                } catch (const std::exception &e) {
                    trace_error =
                        std::string("trace generation failed: ") +
                        e.what();
                } catch (...) {
                    trace_error =
                        "trace generation failed: unknown exception";
                }
            }
            for (std::size_t c = 0; c < configs.size(); ++c)
                runCellJournaled(journal.get(), w.name,
                                 trace ? &trace->source() : nullptr,
                                 configs[c], trace_error,
                                 row.results[c], row.statuses[c]);
            rows.push_back(std::move(row));
            if (progress)
                progress(w.name);
        }
        return rows;
    }

    const std::size_t n_wl = suite.size();
    const std::size_t n_cfg = configs.size();
    std::vector<SuiteRow> rows(n_wl);
    for (std::size_t i = 0; i < n_wl; ++i) {
        rows[i].workload = suite[i].name;
        rows[i].results.resize(n_cfg);
        rows[i].statuses.resize(n_cfg);
    }

    util::ThreadPool pool(jobs);

    // The GraphBig kernels all walk the shared graph; touch it before the
    // fan-out so its (thread-safe, but serializing) lazy build does not
    // stall the first wave of workers.
    wl::sharedGraph();

    // Phase 1: one trace per workload, generated in parallel and then
    // shared immutably by every configuration of that workload.  A
    // workload whose generator throws loses only its own row; a fully
    // journaled workload skips generation (its cells resume from the
    // manifest), and a pending shutdown skips it too.
    std::vector<std::optional<wl::TraceHandle>> traces(n_wl);
    std::vector<std::string> trace_errors(n_wl);
    util::parallelFor(pool, n_wl, [&](std::size_t i) {
        if (journal && journal->workloadComplete(suite[i].name, configs))
            return;
        if (shutdownRequested())
            return; // cells report "interrupted by shutdown request"
        try {
            traces[i].emplace(wl::generateTraceHandle(
                suite[i], configs.front().cfg.trace_records,
                configs.front().cfg.seed));
        } catch (const std::exception &e) {
            trace_errors[i] =
                std::string("trace generation failed: ") + e.what();
        } catch (...) {
            trace_errors[i] = "trace generation failed: unknown exception";
        }
    });

    // Phase 2: every (workload, config) cell is an independent task.
    // Each cell writes its own preassigned slot, so results land in
    // deterministic order no matter which worker finishes first.
    std::unique_ptr<std::atomic<std::size_t>[]> cells_done(
        new std::atomic<std::size_t>[n_wl]);
    for (std::size_t i = 0; i < n_wl; ++i)
        cells_done[i].store(0, std::memory_order_relaxed);
    util::parallelFor(pool, n_wl * n_cfg, [&](std::size_t t) {
        const std::size_t w = t / n_cfg;
        const std::size_t c = t % n_cfg;
        runCellJournaled(journal.get(), suite[w].name,
                         traces[w] ? &traces[w]->source() : nullptr,
                         configs[c], trace_errors[w], rows[w].results[c],
                         rows[w].statuses[c]);
        if (progress &&
            cells_done[w].fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n_cfg)
            progress(suite[w].name);
    });
    return rows;
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

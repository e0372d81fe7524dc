/**
 * @file
 * Experiment harness shared by the bench binaries: build named
 * configurations, run them over the workload suite (reusing one trace per
 * workload across configurations), and collect SimResults.
 *
 * The (workload x configuration) grid is embarrassingly parallel: every
 * simulation is a pure function of one immutable trace and one config.
 * runSuite()/runWorkload() fan the grid across a thread pool sized by the
 * RMCC_JOBS environment variable (default: hardware concurrency).
 * RMCC_JOBS=1 is a pool of one, which runs every task inline in
 * workload-major, config order.  Results are always collected in
 * deterministic (suite, config) order regardless of the job count.
 */
#ifndef RMCC_SIM_EXPERIMENTS_HPP
#define RMCC_SIM_EXPERIMENTS_HPP

#include <functional>
#include <utility>
#include <vector>

#include "sim/functional_sim.hpp"
#include "sim/timing_sim.hpp"
#include "workloads/registry.hpp"

namespace rmcc::sim
{

/** A labeled configuration for comparative experiments. */
struct NamedConfig
{
    std::string label;
    SystemConfig cfg;
};

/** Terminal state of one (workload, config) cell. */
enum class CellState
{
    Ok,       //!< Produced a result.
    Failed,   //!< The cell threw; the result slot is a placeholder.
    TimedOut, //!< Completed, but slower than RMCC_CELL_TIMEOUT_MS.
};

/** Human-readable cell-state name ("ok" / "failed" / "timed-out"). */
const char *cellStateName(CellState s);

/**
 * How one (workload, config) cell executed — distinct from what it
 * measured.  A failed or timed-out cell never aborts the suite: its
 * status carries the error while every other cell's results survive.
 */
struct CellStatus
{
    CellState state = CellState::Ok;
    double elapsed_ms = 0.0; //!< Wall clock of the run.
    std::string error;       //!< what() of the failure, if any.

    bool ok() const { return state == CellState::Ok; }
};

/** Results for one workload under each configuration (config order). */
struct SuiteRow
{
    std::string workload;
    std::vector<SimResult> results;
    std::vector<CellStatus> statuses; //!< Parallel to results.

    /** Every cell of the row ran to completion? */
    bool allOk() const
    {
        for (const CellStatus &s : statuses)
            if (!s.ok())
                return false;
        return true;
    }
};

/**
 * Per-workload completion callback.  The suite runner invokes it exactly
 * once per workload, as soon as every configuration of that workload has
 * finished — from worker threads when running in parallel, so the
 * callback must be thread-safe (e.g. a mutex-guarded reporter).
 */
using ProgressFn = std::function<void(const std::string &workload)>;

/**
 * Run each configuration over each workload of the paper suite.  The
 * workload's trace is generated once (with the first configuration's
 * record count and seed) and shared immutably across configurations, so
 * normalized comparisons see identical instruction streams.  Under
 * RMCC_TRACE_SPILL the trace streams to a checksummed file in
 * RMCC_TRACE_DIR instead of RAM and every cell replays it through
 * windowed mmap — same records, bit-identical results, bounded memory
 * (see wl::generateTraceHandle and docs/TRACING.md).
 *
 * The traces and then every (workload, config) cell run as independent
 * tasks on a pool of RMCC_JOBS threads; rows come back in suite order
 * either way.
 *
 * Cells are failure-isolated: a cell that throws has its error recorded
 * in its CellStatus while the rest of the grid completes normally.  A
 * cell exceeding RMCC_CELL_TIMEOUT_MS (default 0 = disabled) is aborted
 * cooperatively — the simulator polls a cancellation token between
 * records — and recorded TimedOut with a placeholder result.  A workload
 * whose trace generation fails has every cell of its row marked Failed.
 *
 * @throws std::invalid_argument if the configurations disagree on the
 *         trace shape (trace_records / seed) — a silent mismatch would
 *         feed some configs a trace they did not ask for.  (Caller
 *         errors are not failure-isolated; broken cells are.)
 */
std::vector<SuiteRow> runSuite(const std::vector<NamedConfig> &configs,
                               const ProgressFn &progress = {});

/**
 * Run a single workload under each configuration (configs fan out across
 * the RMCC_JOBS pool).  Same trace-shape validation and failure isolation
 * as runSuite(); the shared graph is built only if the workload needs it.
 */
SuiteRow runWorkload(const wl::Workload &w,
                     const std::vector<NamedConfig> &configs);

/** Resolved job count for the suite runner (RMCC_JOBS policy). */
unsigned suiteJobs();

/** Dispatch one run by the configuration's mode. */
SimResult runOne(const std::string &workload_name,
                 const trace::TraceSource &trace, const NamedConfig &nc);

/**
 * runOne with the suite runner's failure isolation: catch, and flag per
 * RMCC_CELL_TIMEOUT_MS.  On failure the returned SimResult is a labeled
 * placeholder with empty stats.
 */
std::pair<SimResult, CellStatus>
runCellGuarded(const std::string &workload_name,
               const trace::TraceSource &trace, const NamedConfig &nc);

namespace detail
{
/**
 * Test seam: invoked with (workload, config label) at the start of every
 * cell.  Tests install a throwing hook to prove the runner
 * isolates and records failing cells; empty in production.
 */
extern std::function<void(const std::string &, const std::string &)>
    cell_fault_hook;
} // namespace detail

// --- standard configurations used across benches ------------------------

/** Non-secure memory system (Fig 13 normalization baseline). */
NamedConfig nonSecureConfig(SimMode mode);

/** Secure system with a given counter scheme, no RMCC. */
NamedConfig baselineConfig(SimMode mode, ctr::SchemeKind scheme);

/** Secure Morphable + RMCC (the paper's main configuration). */
NamedConfig rmccConfig(SimMode mode);

/**
 * Reduce simulated work for quick runs: scales trace/warmup lengths of a
 * config set by the RMCC_FAST environment variable if present (used by
 * CI/tests, not by the reported benches).
 */
void applyFastEnv(std::vector<NamedConfig> &configs);

} // namespace rmcc::sim

#endif // RMCC_SIM_EXPERIMENTS_HPP

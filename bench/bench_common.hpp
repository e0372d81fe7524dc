/**
 * @file
 * Shared plumbing for the figure/table reproduction benches: run a set of
 * named configurations over the 11-workload suite and print one metric as
 * the paper's figure series (plus a CSV next to stdout).
 */
#ifndef RMCC_BENCH_COMMON_HPP
#define RMCC_BENCH_COMMON_HPP

#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiments.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rmcc::bench
{

/** Metric extracted per (workload, config-index) cell. */
using Metric = std::function<double(const sim::SuiteRow &, std::size_t)>;

/**
 * Mutex-guarded progress reporter: workload-done lines stay whole even
 * when they arrive from concurrent suite-runner workers.
 */
class ProgressReporter
{
  public:
    explicit ProgressReporter(std::string title) : title_(std::move(title))
    {
    }

    /** Report one finished workload (thread-safe). */
    void done(const std::string &workload)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        util::logInfo("%s: %s done", title_.c_str(), workload.c_str());
    }

  private:
    std::string title_;
    std::mutex mutex_;
};

/**
 * Record cells that failed or timed out: one `workload,label,state,error`
 * line per bad cell in a `<csv>.errors` sidecar plus a stderr warning.
 * Failed cells carry placeholder results, so the main CSV stays complete
 * and parseable; the sidecar is how a consumer learns which of its
 * numbers to discard.  The sidecar is written to a temp sibling and
 * renamed into place, so a crash mid-write never leaves a torn file where
 * a prior complete one stood.  No sidecar is written (and a stale one is
 * removed) on a clean run.
 */
inline void
emitCellErrors(const std::string &csv,
               const std::vector<sim::NamedConfig> &configs,
               const std::vector<sim::SuiteRow> &rows)
{
    const std::string path = csv + ".errors";
    const std::string tmp = path + ".tmp";
    std::size_t bad = 0;
    std::ofstream out;
    for (const sim::SuiteRow &row : rows) {
        for (std::size_t c = 0;
             c < row.statuses.size() && c < configs.size(); ++c) {
            const sim::CellStatus &st = row.statuses[c];
            if (st.ok())
                continue;
            if (!out.is_open())
                out.open(tmp, std::ios::trunc);
            ++bad;
            out << row.workload << ',' << configs[c].label << ','
                << sim::cellStateName(st.state) << ',' << st.error << '\n';
        }
    }
    if (bad == 0) {
        std::remove(path.c_str());
        return;
    }
    out.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
    util::warn("%zu cell(s) failed or timed out; see %s", bad, path.c_str());
}

/**
 * Run every configuration over the suite and emit one table: rows are
 * workloads (plus a mean row), columns are configurations.
 *
 * @param title figure name for the header.
 * @param csv file name for the CSV copy.
 * @param configs the configurations, in column order.
 * @param metric cell extractor.
 * @param percent render cells as percentages.
 * @param use_geomean mean row uses geometric mean (performance ratios).
 */
inline void
runAndEmit(const std::string &title, const std::string &csv,
           std::vector<sim::NamedConfig> configs, const Metric &metric,
           bool percent = false, bool use_geomean = false)
{
    sim::applyFastEnv(configs);
    std::vector<std::string> headers = {"workload"};
    for (const auto &nc : configs)
        headers.push_back(nc.label);
    util::Table table(title, headers);

    // The suite runner fans (workload x config) cells across RMCC_JOBS
    // threads; progress lines stream from its workers as workloads
    // finish, while rows come back in deterministic suite order.
    ProgressReporter reporter(title);
    const std::vector<sim::SuiteRow> rows = sim::runSuite(
        configs,
        [&reporter](const std::string &workload) { reporter.done(workload); });

    std::vector<std::vector<double>> columns(configs.size());
    for (const sim::SuiteRow &row : rows) {
        std::vector<std::string> cells = {row.workload};
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const double v = metric(row, c);
            columns[c].push_back(v);
            cells.push_back(percent ? util::fmtPercent(v)
                                    : util::fmtDouble(v));
        }
        table.addRow(cells);
    }
    std::vector<std::string> mean_cells = {use_geomean ? "geomean"
                                                       : "mean"};
    for (const auto &col : columns) {
        const double m =
            use_geomean ? util::geomean(col) : util::mean(col);
        mean_cells.push_back(percent ? util::fmtPercent(m)
                                     : util::fmtDouble(m));
    }
    table.addRow(mean_cells);
    table.emit(csv);
    emitCellErrors(csv, configs, rows);
}

/** Performance of config c normalized to config 0 (first column). */
inline Metric
perfNormalizedTo0()
{
    return [](const sim::SuiteRow &row, std::size_t c) {
        const double base = row.results[0].perf();
        return base > 0.0 ? row.results[c].perf() / base : 0.0;
    };
}

} // namespace rmcc::bench

#endif // RMCC_BENCH_COMMON_HPP

/**
 * @file
 * The paper's 11-workload suite (Fig 3 order): eight GraphBig kernels,
 * canneal, omnetpp, and mcf, each packaged as a named trace generator.
 */
#ifndef RMCC_WORKLOADS_REGISTRY_HPP
#define RMCC_WORKLOADS_REGISTRY_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_buffer.hpp"
#include "workloads/graph.hpp"

namespace rmcc::trace
{
class TraceFileReader;
} // namespace rmcc::trace

namespace rmcc::wl
{

/** A named, reproducible trace generator. */
struct Workload
{
    std::string name;
    //! Mean non-memory instructions between memory ops (compute density).
    double mean_inst_gap;
    //! Stream the workload's access stream into the sink (until full).
    std::function<void(trace::TraceSink &, std::uint64_t seed)> generate;
};

/** The 11 workloads in the paper's figure order. */
const std::vector<Workload> &workloadSuite();

/** Look up a workload by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/**
 * The shared power-law input graph (built once per process) that all
 * GraphBig kernels traverse — the stand-in for the 8_5-fb dataset.
 */
const Graph &sharedGraph();

/**
 * Generate a workload's trace with the standard budget.
 * @param records trace length (default 2 M memory operations).
 */
trace::TraceBuffer generateTrace(const Workload &w, std::size_t records,
                                 std::uint64_t seed);

/**
 * Owner of one generated trace — either the classic in-RAM TraceBuffer
 * or a spilled columnar trace file opened for windowed mmap replay.
 * Movable, not copyable; source() is what the simulators consume either
 * way.
 */
class TraceHandle
{
  public:
    TraceHandle() = delete;
    explicit TraceHandle(trace::TraceBuffer buf);
    explicit TraceHandle(std::unique_ptr<trace::TraceFileReader> file);
    ~TraceHandle();
    TraceHandle(TraceHandle &&) noexcept;
    TraceHandle &operator=(TraceHandle &&) noexcept;

    /** The replayable view (valid for the handle's lifetime). */
    const trace::TraceSource &source() const;

    /** True when the trace lives on disk (mmap windows), not in RAM. */
    bool spilled() const { return file_ != nullptr; }

    /** On-disk path of a spilled trace; empty for in-RAM traces. */
    const std::string &path() const;

  private:
    std::unique_ptr<trace::TraceBuffer> ram_;
    std::unique_ptr<trace::TraceFileReader> file_;
};

/**
 * Generate a workload's trace honoring the RMCC_TRACE_SPILL policy:
 * in-RAM by default (bit-identical to generateTrace()), streamed to a
 * checksummed file under RMCC_TRACE_DIR when spilling is requested (or
 * the trace crosses the auto threshold).  Spilled files are keyed by the
 * workload fingerprint (name/records/seed/generator-version): a cached
 * file that validates is reused, anything stale or corrupt is
 * regenerated in place.
 */
TraceHandle generateTraceHandle(const Workload &w, std::size_t records,
                                std::uint64_t seed);

/**
 * generateTraceHandle's spill policy and cache for any generator: the
 * trace `generate` streams is kept in RAM unless RMCC_TRACE_SPILL asks
 * for a file, which is keyed by traceFingerprint(name, records, seed).
 */
TraceHandle
generateSpillable(const std::string &name, std::size_t records,
                  std::uint64_t seed,
                  const std::function<void(trace::TraceSink &)> &generate);

} // namespace rmcc::wl

#endif // RMCC_WORKLOADS_REGISTRY_HPP

#include "workloads/registry.hpp"

#include <cstdio>

#include <sys/stat.h>

#include "trace/trace_file.hpp"
#include "trace/trace_reader.hpp"
#include "util/log.hpp"
#include "workloads/canneal.hpp"
#include "workloads/graphbig.hpp"
#include "workloads/mcf.hpp"
#include "workloads/omnetpp.hpp"

namespace rmcc::wl
{

namespace
{

/** Shared-graph scale: ~4 M vertices, ~24 M edges (~128 MB CSR). */
constexpr std::uint64_t kGraphVertices = 4 * 1024 * 1024;
constexpr std::uint64_t kGraphEdges = 24 * 1024 * 1024;
constexpr double kGraphZipf = 0.75;
constexpr std::uint64_t kGraphSeed = 0x5eed6a7;

using KernelFn = void (*)(const Graph &, trace::TracedHeap &,
                          std::uint64_t);

/** Wrap a graph kernel as a Workload generator. */
Workload
graphWorkload(std::string name, double gap, KernelFn kernel)
{
    return {std::move(name), gap,
            [kernel, gap](trace::TraceSink &buf, std::uint64_t seed) {
                trace::TracedHeap heap(buf, gap, seed);
                kernel(sharedGraph(), heap, seed);
                heap.flush();
            }};
}

} // namespace

const Graph &
sharedGraph()
{
    static const Graph g =
        Graph::powerLawCached(kGraphVertices, kGraphEdges, kGraphZipf,
                              kGraphSeed);
    return g;
}

const std::vector<Workload> &
workloadSuite()
{
    static const std::vector<Workload> suite = [] {
        std::vector<Workload> v;
        v.push_back(graphWorkload("pageRank", 5.0, &runPageRank));
        v.push_back(graphWorkload("graphColoring", 4.0,
                                  &runGraphColoring));
        v.push_back(graphWorkload("connectedComp", 4.0,
                                  &runConnectedComp));
        v.push_back(graphWorkload("degreeCentr", 4.0, &runDegreeCentr));
        v.push_back(graphWorkload("DFS", 4.0, &runDfs));
        v.push_back(graphWorkload("BFS", 4.0, &runBfs));
        v.push_back(graphWorkload("triangleCount", 3.0,
                                  &runTriangleCount));
        v.push_back(graphWorkload("shortestPath", 4.0, &runShortestPath));
        v.push_back({"canneal", 6.0,
                     [](trace::TraceSink &buf, std::uint64_t seed) {
                         trace::TracedHeap heap(buf, 6.0, seed);
                         runCanneal(CannealConfig(), heap, seed);
                         heap.flush();
                     }});
        v.push_back({"omnetpp", 10.0,
                     [](trace::TraceSink &buf, std::uint64_t seed) {
                         trace::TracedHeap heap(buf, 10.0, seed);
                         runOmnetpp(OmnetppConfig(), heap, seed);
                         heap.flush();
                     }});
        v.push_back({"mcf", 8.0,
                     [](trace::TraceSink &buf, std::uint64_t seed) {
                         trace::TracedHeap heap(buf, 8.0, seed);
                         runMcf(McfConfig(), heap, seed);
                         heap.flush();
                     }});
        return v;
    }();
    return suite;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloadSuite())
        if (w.name == name)
            return &w;
    return nullptr;
}

trace::TraceBuffer
generateTrace(const Workload &w, std::size_t records, std::uint64_t seed)
{
    trace::TraceBuffer buf(records);
    w.generate(buf, seed);
    return buf;
}

TraceHandle::TraceHandle(trace::TraceBuffer buf)
    : ram_(std::make_unique<trace::TraceBuffer>(std::move(buf)))
{
}

TraceHandle::TraceHandle(std::unique_ptr<trace::TraceFileReader> file)
    : file_(std::move(file))
{
}

TraceHandle::~TraceHandle() = default;
TraceHandle::TraceHandle(TraceHandle &&) noexcept = default;
TraceHandle &TraceHandle::operator=(TraceHandle &&) noexcept = default;

const trace::TraceSource &
TraceHandle::source() const
{
    return file_ ? static_cast<const trace::TraceSource &>(*file_)
                 : static_cast<const trace::TraceSource &>(*ram_);
}

const std::string &
TraceHandle::path() const
{
    static const std::string empty;
    return file_ ? file_->path() : empty;
}

TraceHandle
generateTraceHandle(const Workload &w, std::size_t records,
                    std::uint64_t seed)
{
    return generateSpillable(
        w.name, records, seed,
        [&](trace::TraceSink &sink) { w.generate(sink, seed); });
}

TraceHandle
generateSpillable(const std::string &name, std::size_t records,
                  std::uint64_t seed,
                  const std::function<void(trace::TraceSink &)> &generate)
{
    const trace::SpillConfig sc = trace::spillConfigFromEnv();
    if (!sc.shouldSpill(records)) {
        trace::TraceBuffer buf(records);
        generate(buf);
        return TraceHandle(std::move(buf));
    }

    const std::uint64_t fp = trace::traceFingerprint(name, records, seed);
    trace::ensureTraceDir(sc.dir);
    char fphex[20];
    std::snprintf(fphex, sizeof fphex, "%016llx",
                  static_cast<unsigned long long>(fp));
    const std::string path = sc.dir + "/" + name + "-" + fphex + ".rmcctrc";

    // Spill cache: a finalized file for this exact (name, records, seed,
    // generator version) is replayed as-is — the fingerprint in the
    // header plus the opening checksum pass make reuse safe.  Any
    // mismatch, truncation, corruption or other format version falls
    // through to regeneration.
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
        try {
            auto rd = std::make_unique<trace::TraceFileReader>(path, 0, fp);
            util::logDebug("trace spill: reusing cached '%s'",
                           path.c_str());
            return TraceHandle(std::move(rd));
        } catch (const std::exception &e) {
            util::warn("trace spill: cached '%s' rejected (%s); "
                       "regenerating",
                       path.c_str(), e.what());
        }
    }

    {
        trace::TraceFileWriter writer(path, records, fp);
        generate(writer);
        writer.finalize();
    }
    return TraceHandle(
        std::make_unique<trace::TraceFileReader>(path, 0, fp));
}

} // namespace rmcc::wl

/**
 * @file
 * Synthetic power-law graph in CSR form — the substitute for the paper's
 * 8_5-fb Facebook-like LDBC dataset (see DESIGN.md, substitutions).
 */
#ifndef RMCC_WORKLOADS_GRAPH_HPP
#define RMCC_WORKLOADS_GRAPH_HPP

#include <cstdint>
#include <vector>

#include "trace/traced_memory.hpp"

namespace rmcc::wl
{

/**
 * Compressed-sparse-row directed graph.
 */
struct Graph
{
    std::uint64_t num_vertices = 0;
    std::vector<std::uint64_t> offsets; //!< size V+1.
    std::vector<std::uint32_t> edges;   //!< size E, sorted per vertex.

    std::uint64_t numEdges() const { return edges.size(); }

    std::uint64_t degree(std::uint64_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }

    /**
     * Build a power-law (RMAT-like degree skew) graph: edge sources are
     * Zipf-distributed so a few hub vertices have very high out-degree,
     * targets mix Zipf (popularity) and uniform (randomness) draws.
     */
    static Graph powerLaw(std::uint64_t vertices, std::uint64_t edges,
                          double zipf_exponent, std::uint64_t seed);

    /**
     * powerLaw() behind an on-disk memo: the CSR of a (vertices, edges,
     * exponent, seed) build is checksummed and cached in the directory
     * named by RMCC_GRAPH_CACHE_DIR (default /tmp), so the ~seconds-long
     * generation runs once per machine instead of once per bench
     * process.  A stale, corrupt, or unwritable cache silently falls
     * back to building.  The returned graph is byte-identical to
     * powerLaw()'s either way.
     */
    static Graph powerLawCached(std::uint64_t vertices,
                                std::uint64_t edges,
                                double zipf_exponent, std::uint64_t seed);
};

/**
 * The graph's CSR arrays mapped into a traced heap so kernel traversals
 * are recorded.  The heap reserves the two virtual ranges; loads read the
 * shared host graph in place, since the kernels never write it.
 */
class TracedGraph
{
  public:
    TracedGraph(const Graph &g, trace::TracedHeap &heap);

    /** Recorded load of offsets[v]. */
    std::uint64_t offset(std::uint64_t v)
    {
        heap_->load(offsets_base_, v, sizeof(std::uint64_t));
        return g_->offsets[v];
    }

    /** Recorded load of edges[e]. */
    std::uint32_t edge(std::uint64_t e)
    {
        heap_->load(edges_base_, e, sizeof(std::uint32_t));
        return g_->edges[e];
    }

    std::uint64_t numVertices() const { return g_->num_vertices; }
    std::uint64_t numEdges() const { return g_->numEdges(); }

    /** Untraced degree (control flow, not data traffic). */
    std::uint64_t rawDegree(std::uint64_t v) const
    {
        return g_->degree(v);
    }

  private:
    const Graph *g_;
    trace::TracedHeap *heap_;
    addr::Addr offsets_base_; //!< Declared first: allocation order
                              //!< fixes both ranges' addresses.
    addr::Addr edges_base_;
};

} // namespace rmcc::wl

#endif // RMCC_WORKLOADS_GRAPH_HPP

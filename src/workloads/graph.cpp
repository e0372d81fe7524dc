#include "workloads/graph.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/checksum.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace rmcc::wl
{

namespace
{

/** GCD for the permutation-multiplier selection. */
std::uint64_t
gcdU64(std::uint64_t a, std::uint64_t b)
{
    while (b) {
        a %= b;
        std::swap(a, b);
    }
    return a;
}

using EdgePair = std::pair<std::uint32_t, std::uint32_t>;

// "RMCCGRPH" — identifies (and versions, below) the graph cache files.
constexpr std::uint64_t kCacheMagic = 0x524d434347525048ULL;
// Bump when the payload or its checksum changes.  The version is part of
// the file name, so files of other versions are never opened.
constexpr std::uint64_t kCacheVersion = 2;

/**
 * Fixed-size cache-file header; every field is uint64_t so the struct
 * has no padding and can be read/written as raw bytes.
 */
struct CacheHeader
{
    std::uint64_t magic;
    std::uint64_t version;
    std::uint64_t vertices;
    std::uint64_t edges_requested;
    std::uint64_t zipf_bits; //!< bit pattern of the double exponent.
    std::uint64_t seed;
    std::uint64_t num_edges; //!< actual edges.size() in the payload.
    std::uint64_t checksum;  //!< checksum64 over offsets then edges bytes.
};
static_assert(sizeof(CacheHeader) == 8 * sizeof(std::uint64_t));

std::uint64_t
graphChecksum(const Graph &g)
{
    const std::uint64_t h = util::checksum64(
        g.offsets.data(), g.offsets.size() * sizeof(std::uint64_t));
    return util::checksum64(g.edges.data(),
                            g.edges.size() * sizeof(std::uint32_t), h);
}

/** Payload bytes per read: the size of the bounce buffer. */
constexpr std::size_t kLoadChunkBytes = std::size_t{1} << 20;

/** pread() exactly len bytes at off, resuming on short reads / EINTR. */
bool
preadExact(int fd, void *dst, std::size_t len, off_t off)
{
    auto *p = static_cast<unsigned char *>(dst);
    while (len > 0) {
        const ssize_t n = ::pread(fd, p, len, off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        off += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** A bounce buffer of one chunk of T, not zero-filled. */
template <typename T>
std::unique_ptr<T[]>
makeBounce()
{
    return std::make_unique_for_overwrite<T[]>(kLoadChunkBytes / sizeof(T));
}

/**
 * Append n elements of T, read from fd at off, to v (already reserved):
 * each chunk is read into the bounce buffer (makeBounce), fed to sum
 * while it is in cache and appended, so every payload byte is copied
 * once and nothing is zero-filled first.  Advances off.
 */
template <typename T>
bool
readArray(int fd, off_t &off, std::uint64_t n, std::vector<T> &v,
          T *bounce, util::ChecksumStream &sum)
{
    constexpr std::size_t kChunk = kLoadChunkBytes / sizeof(T);
    for (std::uint64_t left = n; left > 0;) {
        const std::size_t k =
            static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunk));
        const std::size_t bytes = k * sizeof(T);
        if (!preadExact(fd, bounce, bytes, off))
            return false;
        sum.update(bounce, bytes);
        v.insert(v.end(), bounce, bounce + k);
        off += static_cast<off_t>(bytes);
        left -= k;
    }
    return true;
}

/**
 * Load a cached CSR, validating every header field, the exact file size
 * (a short or a trailing byte is rejected before any payload is read),
 * and the checksum.  Any mismatch (stale format, different parameters,
 * truncated or corrupt file) returns false so the caller rebuilds.
 */
bool
loadGraphCache(const std::string &path, const CacheHeader &want,
               Graph &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    CacheHeader h{};
    struct stat st{};
    bool ok = preadExact(fd, &h, sizeof h, 0) && h.magic == want.magic &&
              h.version == want.version &&
              h.vertices == want.vertices &&
              h.edges_requested == want.edges_requested &&
              h.zipf_bits == want.zipf_bits && h.seed == want.seed &&
              h.num_edges == want.edges_requested &&
              ::fstat(fd, &st) == 0 &&
              static_cast<std::uint64_t>(st.st_size) ==
                  sizeof h + (h.vertices + 1) * sizeof(std::uint64_t) +
                      h.num_edges * sizeof(std::uint32_t);
    if (ok) {
        // The bounce buffers come first: allocated after the CSR, they
        // sit above it in the heap and repeated loads in one process
        // fragment it (perfbench's 11 pageRank loads peaked 20 MB higher).
        const auto offsets_bounce = makeBounce<std::uint64_t>();
        const auto edges_bounce = makeBounce<std::uint32_t>();
        out.num_vertices = h.vertices;
        out.offsets.reserve(h.vertices + 1);
        out.edges.reserve(h.num_edges);
        // The checksum is over offsets, then edges seeded with that.
        off_t off = sizeof h;
        util::ChecksumStream offsets_sum;
        ok = readArray(fd, off, h.vertices + 1, out.offsets,
                       offsets_bounce.get(), offsets_sum);
        util::ChecksumStream edges_sum(offsets_sum.digest());
        ok = ok &&
             readArray(fd, off, h.num_edges, out.edges, edges_bounce.get(),
                       edges_sum) &&
             edges_sum.digest() == h.checksum;
    }
    ::close(fd);
    if (!ok)
        out = Graph{};
    return ok;
}

/**
 * Write the cache atomically: build a .tmp sibling, then rename() it
 * into place so concurrent readers only ever see complete files.  All
 * failures are silent — the cache is an optimization, not a contract.
 */
void
saveGraphCache(const std::string &path, const CacheHeader &h,
               const Graph &g)
{
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return;
    bool ok =
        std::fwrite(&h, 1, sizeof h, f) == sizeof h &&
        std::fwrite(g.offsets.data(), sizeof(std::uint64_t),
                    g.offsets.size(), f) == g.offsets.size() &&
        std::fwrite(g.edges.data(), sizeof(std::uint32_t),
                    g.edges.size(), f) == g.edges.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
}

} // namespace

Graph
Graph::powerLawCached(std::uint64_t vertices, std::uint64_t edges,
                      double zipf_exponent, std::uint64_t seed)
{
    std::uint64_t zipf_bits = 0;
    static_assert(sizeof zipf_bits == sizeof zipf_exponent);
    std::memcpy(&zipf_bits, &zipf_exponent, sizeof zipf_bits);

    CacheHeader want{kCacheMagic, kCacheVersion, vertices, edges,
                     zipf_bits,   seed,          edges,    0};

    const auto dir = util::envString("RMCC_GRAPH_CACHE_DIR");
    std::string path = dir ? *dir : "/tmp";
    if (dir) {
        std::error_code ec;
        if (!std::filesystem::is_directory(path, ec)) {
            // The cache is an optimization, so a bad directory must not
            // abort the run — but silently building uncached every time
            // hides a misconfiguration, so say why.
            util::warn("RMCC_GRAPH_CACHE_DIR='%s' is not a directory; "
                       "graph cache disabled for this run",
                       path.c_str());
            return powerLaw(vertices, edges, zipf_exponent, seed);
        }
    }
    char name[128];
    std::snprintf(name, sizeof name,
                  "/rmcc_graph_v%llu_%llx_%llx_%llx_%llx.bin",
                  static_cast<unsigned long long>(kCacheVersion),
                  static_cast<unsigned long long>(vertices),
                  static_cast<unsigned long long>(edges),
                  static_cast<unsigned long long>(zipf_bits),
                  static_cast<unsigned long long>(seed));
    path += name;

    Graph g;
    if (loadGraphCache(path, want, g))
        return g;

    g = powerLaw(vertices, edges, zipf_exponent, seed);
    want.num_edges = g.numEdges();
    want.checksum = graphChecksum(g);
    saveGraphCache(path, want, g);
    return g;
}

Graph
Graph::powerLaw(std::uint64_t vertices, std::uint64_t num_edges,
                double zipf_exponent, std::uint64_t seed)
{
    // Scatter popularity ranks over the id space with an affine bijection:
    // real graphs' hubs have arbitrary ids, not a contiguous prefix (a
    // contiguous hot prefix would be unrealistically cache-friendly).
    std::uint64_t mult = 2654435761ULL % vertices;
    while (gcdU64(mult, vertices) != 1)
        ++mult;
    const auto perm = [mult, vertices](std::uint64_t rank) {
        return static_cast<std::uint32_t>(
            (rank * mult + 12345) % vertices);
    };

    // Draw (src, dst) pairs: Zipf sources give hub vertices; half the
    // targets are Zipf (popular destinations), half uniform.  This loop
    // is inherently serial — the degree-cap fallback draws extra RNG
    // values conditionally, so every edge depends on its predecessors.
    // The draw tables are freed at the end of this block, before the CSR
    // is allocated, so a build peaks at about the pairs plus the CSR.
    std::vector<EdgePair> pairs;
    {
        util::Rng rng(seed);
        util::ZipfSampler zipf(vertices, zipf_exponent);
        // Cap per-source degree so no single hub's adjacency dominates a
        // simulation window (LDBC-scale degree ceilings relative to |V|).
        const std::uint64_t cap =
            std::max<std::uint64_t>(64, 64 * num_edges / vertices);
        std::vector<std::uint32_t> degree(vertices, 0);
        pairs.reserve(num_edges);
        for (std::uint64_t e = 0; e < num_edges; ++e) {
            std::uint64_t src_rank = zipf(rng);
            if (degree[src_rank] >= cap)
                src_rank = rng.nextBelow(vertices);
            ++degree[src_rank];
            const std::uint64_t dst_rank =
                rng.nextBool(0.5) ? zipf(rng) : rng.nextBelow(vertices);
            pairs.emplace_back(perm(src_rank), perm(dst_rank));
        }
    }

    // Counting sort by source: offsets[v + 1] counts v's edges, the
    // prefix sum turns them into start offsets, and each dst is scattered
    // through offsets[src]++.  That leaves offsets[v] at v's end, which is
    // v + 1's start, so shifting the array up one slot restores it.
    Graph g;
    g.num_vertices = vertices;
    g.offsets.assign(vertices + 1, 0);
    for (const auto &[src, dst] : pairs)
        ++g.offsets[src + 1];
    for (std::uint64_t v = 0; v < vertices; ++v)
        g.offsets[v + 1] += g.offsets[v];
    g.edges.resize(pairs.size());
    for (const auto &[src, dst] : pairs)
        g.edges[g.offsets[src]++] = dst;
    std::vector<EdgePair>().swap(pairs);
    std::copy_backward(g.offsets.begin(), g.offsets.end() - 1,
                       g.offsets.end());
    g.offsets[0] = 0;

    // Sorted per-vertex adjacency (the order a sort of the (src, dst)
    // pairs gives) makes triangle counting's sorted intersection
    // realistic.
    for (std::uint64_t v = 0; v < vertices; ++v)
        std::sort(g.edges.begin() +
                      static_cast<std::ptrdiff_t>(g.offsets[v]),
                  g.edges.begin() +
                      static_cast<std::ptrdiff_t>(g.offsets[v + 1]));
    return g;
}

TracedGraph::TracedGraph(const Graph &g, trace::TracedHeap &heap)
    : g_(&g), heap_(&heap),
      offsets_base_(heap.allocate(g.num_vertices + 1,
                                  sizeof(std::uint64_t), "csr-offsets")),
      edges_base_(heap.allocate(g.numEdges(), sizeof(std::uint32_t),
                                "csr-edges"))
{
}

} // namespace rmcc::wl

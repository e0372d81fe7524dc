/**
 * @file
 * Workload-model tests: graph construction, kernel trace properties
 * (footprints, write ratios, irregularity ordering), registry coverage
 * of the paper's 11-benchmark suite, and determinism.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "trace/trace_buffer.hpp"
#include "trace/trace_file.hpp"
#include "util/checksum.hpp"
#include "workloads/graphbig.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;
using namespace rmcc::wl;

namespace
{

/** Checksum of a CSR: offsets, then edges. */
std::uint64_t
graphDigest(const Graph &g)
{
    const std::uint64_t h = util::checksum64(
        g.offsets.data(), g.offsets.size() * sizeof(std::uint64_t));
    return util::checksum64(g.edges.data(),
                            g.edges.size() * sizeof(std::uint32_t), h);
}

/** Checksum of the records a graph kernel traces over g. */
std::uint64_t
kernelTraceDigest(void (*kernel)(const Graph &, trace::TracedHeap &,
                                 std::uint64_t),
                  const Graph &g, double gap)
{
    trace::TraceBuffer buf(20000);
    trace::TracedHeap heap(buf, gap, 5);
    kernel(g, heap, 5);
    heap.flush();
    EXPECT_EQ(buf.size(), 20000u);
    return util::checksum64(buf.records().data(),
                            buf.size() * sizeof(trace::Record));
}

/** Flip one byte of a file in place. */
void
flipFileByte(const std::string &path, std::streamoff off)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(off);
    const int orig = f.get();
    ASSERT_NE(orig, EOF);
    f.seekp(off);
    f.put(static_cast<char>(orig ^ 0x7f));
}

} // namespace

TEST(Graph, PowerLawShape)
{
    const Graph g = Graph::powerLaw(10000, 80000, 0.8, 1);
    EXPECT_EQ(g.num_vertices, 10000u);
    EXPECT_EQ(g.numEdges(), 80000u);
    EXPECT_EQ(g.offsets.front(), 0u);
    EXPECT_EQ(g.offsets.back(), 80000u);
    // Degree skew: the max degree far exceeds the mean.
    std::uint64_t max_deg = 0;
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        max_deg = std::max(max_deg, g.degree(v));
    EXPECT_GT(max_deg, 8u * (80000 / 10000));
}

TEST(Graph, DegreeCapBoundsHubs)
{
    const Graph g = Graph::powerLaw(10000, 80000, 0.8, 1);
    const std::uint64_t cap =
        std::max<std::uint64_t>(64, 64 * 80000 / 10000);
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        EXPECT_LE(g.degree(v), cap + 1);
}

TEST(Graph, HubsAreScatteredAcrossIdSpace)
{
    const Graph g = Graph::powerLaw(16384, 131072, 0.8, 2);
    // Collect the 32 highest-degree vertices; they must not cluster in a
    // contiguous id prefix (realistic graphs have scattered hub ids).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> deg;
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        deg.emplace_back(g.degree(v), v);
    std::sort(deg.rbegin(), deg.rend());
    std::uint64_t in_prefix = 0;
    for (int i = 0; i < 32; ++i)
        in_prefix += deg[static_cast<std::size_t>(i)].second < 1024;
    EXPECT_LT(in_prefix, 8u);
}

TEST(Graph, AdjacencySortedPerVertex)
{
    const Graph g = Graph::powerLaw(4096, 32768, 0.8, 3);
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        EXPECT_TRUE(std::is_sorted(g.edges.begin() + g.offsets[v],
                                   g.edges.begin() + g.offsets[v + 1]));
}

TEST(Graph, DeterministicForSeed)
{
    const Graph a = Graph::powerLaw(1000, 8000, 0.8, 9);
    const Graph b = Graph::powerLaw(1000, 8000, 0.8, 9);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.offsets, b.offsets);
}

TEST(Graph, PowerLawDigestPinned)
{
    // Above 65,536 edges, where an earlier build sorted the edge list in
    // parallel; pinned from that build, so the counting sort must give
    // the same bytes.
    const Graph g = Graph::powerLaw(16384, 131072, 0.8, 2);
    EXPECT_EQ(graphDigest(g), 0xa7fd5112368e4e0eULL);
}

TEST(Graph, KernelTraceDigestsPinned)
{
    // Pinned from a build whose TracedGraph copied the CSR into traced
    // arrays: reading the host CSR in place must record the same loads
    // at the same addresses.
    const Graph g = Graph::powerLaw(4096, 32768, 0.8, 3);
    EXPECT_EQ(kernelTraceDigest(&runPageRank, g, 5.0),
              0x14c1ce734a53ccf3ULL);
    EXPECT_EQ(kernelTraceDigest(&runBfs, g, 4.0), 0xd3e51a3ad834a1dbULL);
}

TEST(Graph, DiskCacheRoundTripsAndSurvivesCorruption)
{
    // Point the cache at a scratch dir so this test owns its files.
    // The filename pins the on-disk naming scheme (0.8 == 0x3fe99...9a).
    const std::string dir =
        ::testing::TempDir() + "rmcc_graph_cache_test";
    const std::string cache_file =
        dir + "/rmcc_graph_v2_3e8_1f40_3fe999999999999a_9.bin";
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR", dir.c_str(), 1), 0);
    ASSERT_EQ(system(("rm -rf '" + dir + "'").c_str()), 0);

    // Nonexistent dir: save fails silently, build still succeeds.
    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    const Graph nodir = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(nodir.offsets, base.offsets);
    EXPECT_EQ(nodir.edges, base.edges);

    // Cold miss populates the cache; warm hit returns the same bytes.
    ASSERT_EQ(system(("mkdir -p '" + dir + "'").c_str()), 0);
    const Graph cold = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(cold.offsets, base.offsets);
    EXPECT_EQ(cold.edges, base.edges);
    ASSERT_TRUE(std::ifstream(cache_file).good())
        << "cache file not created where expected: " << cache_file;
    const Graph warm = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(warm.offsets, base.offsets);
    EXPECT_EQ(warm.edges, base.edges);

    // Corrupt the payload: the checksum must reject it and rebuild.
    flipFileByte(cache_file, 200);
    const Graph rebuilt = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(rebuilt.offsets, base.offsets);
    EXPECT_EQ(rebuilt.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

TEST(Graph, DiskCacheRejectsTornWritesAndBadChecksums)
{
    const std::string dir =
        ::testing::TempDir() + "rmcc_graph_torn_test";
    const std::string cache_file =
        dir + "/rmcc_graph_v2_3e8_1f40_3fe999999999999a_9.bin";
    ASSERT_EQ(system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                         .c_str()),
              0);
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR", dir.c_str(), 1), 0);

    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    (void)Graph::powerLawCached(1000, 8000, 0.8, 9); // populate
    std::ifstream probe(cache_file, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(probe.good());
    const std::streamoff full_size = probe.tellg();
    probe.close();

    // Torn write: a crash mid-save leaves the CSR payload cut short.
    // The loader must notice the missing bytes and rebuild.
    ASSERT_EQ(truncate(cache_file.c_str(),
                       static_cast<off_t>(full_size / 2)),
              0);
    const Graph torn = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(torn.offsets, base.offsets);
    EXPECT_EQ(torn.edges, base.edges);

    // The rebuild above re-populated the cache; now flip one byte of the
    // stored checksum (last header field) so header and payload disagree.
    flipFileByte(cache_file, 7 * 8); // the 8th u64 field
    const Graph badsum = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(badsum.offsets, base.offsets);
    EXPECT_EQ(badsum.edges, base.edges);

    // A cache dir that is not a directory disables caching but must not
    // break graph construction.
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR",
                     (dir + "/no/such/dir").c_str(), 1),
              0);
    const Graph nodir = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(nodir.offsets, base.offsets);
    EXPECT_EQ(nodir.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

TEST(Registry, PaperSuiteComplete)
{
    const auto &suite = workloadSuite();
    ASSERT_EQ(suite.size(), 11u);
    const char *expected[] = {
        "pageRank",      "graphColoring", "connectedComp", "degreeCentr",
        "DFS",           "BFS",           "triangleCount", "shortestPath",
        "canneal",       "omnetpp",       "mcf"};
    for (std::size_t i = 0; i < 11; ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
    EXPECT_NE(findWorkload("canneal"), nullptr);
    EXPECT_EQ(findWorkload("nosuch"), nullptr);
}

/** Each workload generates full traces with sane shapes. */
class WorkloadTraces : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadTraces, GeneratesFullDeterministicTrace)
{
    const Workload *w = findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    const auto t1 = generateTrace(*w, 50000, 42);
    EXPECT_EQ(t1.size(), 50000u);
    // The last operation's accesses past a full buffer are not appended.
    EXPECT_EQ(t1.dropped(), 0u);
    EXPECT_GT(t1.totalInstructions(), t1.size());
    // Some workloads are read-only in steady state; all must read.
    EXPECT_LT(t1.writes(), t1.size());
    const auto t2 = generateTrace(*w, 50000, 42);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(t1.records()[i].vaddr, t2.records()[i].vaddr);
        EXPECT_EQ(t1.records()[i].is_write, t2.records()[i].is_write);
    }
}

TEST_P(WorkloadTraces, SpilledGenerationAppendsNothingPastCapacity)
{
    const Workload *w = findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    const std::string path =
        testing::TempDir() + "rmcc_wl_capacity_" + GetParam();
    std::remove(path.c_str());
    trace::TraceFileWriter writer(path, 50000, 0);
    testing::internal::CaptureStderr();
    w->generate(writer, 42);
    writer.finalize();
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(writer.size(), 50000u);
    EXPECT_EQ(writer.dropped(), 0u);
    EXPECT_EQ(log.find("full"), std::string::npos) << log;
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadTraces,
                         ::testing::Values("pageRank", "graphColoring",
                                           "connectedComp", "degreeCentr",
                                           "DFS", "BFS", "triangleCount",
                                           "shortestPath", "canneal",
                                           "omnetpp", "mcf"));

TEST(WorkloadCharacter, CannealIsMoreIrregularThanMcf)
{
    // Distinct-blocks-per-access separates the suite's extremes: canneal
    // scatters, mcf streams with reuse across passes.
    const auto canneal = generateTrace(*findWorkload("canneal"), 60000, 1);
    const auto mcf = generateTrace(*findWorkload("mcf"), 60000, 1);
    const double c = static_cast<double>(canneal.distinctBlocks()) /
                     static_cast<double>(canneal.size());
    const double m = static_cast<double>(mcf.distinctBlocks()) /
                     static_cast<double>(mcf.size());
    EXPECT_GT(c, m);
}

TEST(WorkloadCharacter, WriteIntensityVaries)
{
    const auto pr = generateTrace(*findWorkload("pageRank"), 60000, 1);
    const auto tc = generateTrace(*findWorkload("triangleCount"), 60000, 1);
    // PageRank pushes (writes); triangle counting only reads adjacency.
    EXPECT_GT(pr.writes() * 10, pr.size());
    EXPECT_LT(tc.writes() * 10, tc.size());
}

TEST(Graph, DiskCacheIgnoresVersion1Files)
{
    // A directory left behind by a build that wrote version 1 (FNV-1a
    // checksum) holds a file under the version-1 name.  Plant one that
    // version 1 would accept but whose payload is wrong: the loader must
    // never open it, and must write the version-2 file beside it.
    const std::string dir = ::testing::TempDir() + "rmcc_graph_v1_test";
    const std::string v1_file =
        dir + "/rmcc_graph_v1_3e8_1f40_3fe999999999999a_9.bin";
    const std::string v2_file =
        dir + "/rmcc_graph_v2_3e8_1f40_3fe999999999999a_9.bin";
    ASSERT_EQ(system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                         .c_str()),
              0);

    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    Graph wrong = base;
    wrong.edges[0] ^= 1;
    // The byte-serial FNV-1a that version-1 files carried.
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    const auto fnvBytes = [&fnv](const void *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            fnv ^= static_cast<const unsigned char *>(p)[i];
            fnv *= 0x100000001b3ULL;
        }
    };
    fnvBytes(wrong.offsets.data(),
             wrong.offsets.size() * sizeof(std::uint64_t));
    fnvBytes(wrong.edges.data(), wrong.edges.size() * sizeof(std::uint32_t));
    const std::uint64_t header[8] = {0x524d434347525048ULL, // "RMCCGRPH"
                                     1,
                                     1000,
                                     8000,
                                     0x3fe999999999999aULL,
                                     9,
                                     8000,
                                     fnv};
    {
        std::ofstream f(v1_file, std::ios::binary);
        f.write(reinterpret_cast<const char *>(header), sizeof header);
        f.write(reinterpret_cast<const char *>(wrong.offsets.data()),
                static_cast<std::streamsize>(wrong.offsets.size() *
                                             sizeof(std::uint64_t)));
        f.write(reinterpret_cast<const char *>(wrong.edges.data()),
                static_cast<std::streamsize>(wrong.edges.size() *
                                             sizeof(std::uint32_t)));
        ASSERT_TRUE(f.good());
    }

    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR", dir.c_str(), 1), 0);
    const Graph g = Graph::powerLawCached(1000, 8000, 0.8, 9);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
    EXPECT_EQ(g.offsets, base.offsets);
    EXPECT_EQ(g.edges, base.edges);
    EXPECT_TRUE(std::ifstream(v2_file).good())
        << "version-2 file not written beside the version-1 file";
    EXPECT_TRUE(std::ifstream(v1_file).good());
}

TEST(Graph, DiskCacheRejectsAFlippedLastEdgeByte)
{
    // The last 4 bytes of the payload are the last edge, past the final
    // whole 8-byte word when the edge count is odd: the checksum's tail
    // must still cover them.
    const std::string dir = ::testing::TempDir() + "rmcc_graph_tail_test";
    const std::string cache_file =
        dir + "/rmcc_graph_v2_3e8_1f41_3fe999999999999a_9.bin";
    ASSERT_EQ(system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                         .c_str()),
              0);
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR", dir.c_str(), 1), 0);

    const Graph base = Graph::powerLaw(1000, 8001, 0.8, 9);
    (void)Graph::powerLawCached(1000, 8001, 0.8, 9); // populate
    std::ifstream probe(cache_file, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(probe.good());
    const std::streamoff size = probe.tellg();
    probe.close();
    for (std::streamoff back = 1; back <= 4; ++back) {
        flipFileByte(cache_file, size - back);
        const Graph g = Graph::powerLawCached(1000, 8001, 0.8, 9);
        EXPECT_EQ(g.edges, base.edges) << "byte " << back << " from the end";
        EXPECT_EQ(g.offsets, base.offsets);
    }
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

namespace
{

/**
 * Write a version-2 cache file for g under the (vertices, edges_requested,
 * 0.8, 9) parameters, with a correct checksum, only the first
 * stored_edges edges of the payload and extra_bytes zero bytes after it.
 */
void
writeCacheFile(const std::string &path, const Graph &g,
               std::uint64_t edges_requested, std::size_t stored_edges,
               std::size_t extra_bytes)
{
    const std::uint64_t header[8] = {0x524d434347525048ULL, // "RMCCGRPH"
                                     2,
                                     g.num_vertices,
                                     edges_requested,
                                     0x3fe999999999999aULL, // 0.8
                                     9,
                                     g.numEdges(),
                                     graphDigest(g)};
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(header), sizeof header);
    f.write(reinterpret_cast<const char *>(g.offsets.data()),
            static_cast<std::streamsize>(g.offsets.size() *
                                         sizeof(std::uint64_t)));
    f.write(reinterpret_cast<const char *>(g.edges.data()),
            static_cast<std::streamsize>(stored_edges *
                                         sizeof(std::uint32_t)));
    const std::string extra(extra_bytes, '\0');
    f.write(extra.data(), static_cast<std::streamsize>(extra.size()));
    ASSERT_TRUE(f.good());
}

/** A fresh cache directory, set as RMCC_GRAPH_CACHE_DIR. */
std::string
freshCacheDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    EXPECT_EQ(system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                         .c_str()),
              0);
    EXPECT_EQ(setenv("RMCC_GRAPH_CACHE_DIR", dir.c_str(), 1), 0);
    return dir;
}

} // namespace

TEST(Graph, DiskCacheLoadsAPayloadOfSeveralUnevenChunks)
{
    // 100000 vertices and 300001 edges make a 2000012-byte payload: the
    // loader reads it in 1 MiB chunks, and the last one is neither whole
    // nor a multiple of the checksum's 32-byte stripes.  The planted
    // graph differs from the built one, so returning it proves the file
    // was read and verified, not rebuilt.
    const std::string dir = freshCacheDir("rmcc_graph_chunks_test");
    const std::string cache_file =
        dir + "/rmcc_graph_v2_186a0_493e1_3fe999999999999a_9.bin";
    const Graph base = Graph::powerLaw(100000, 300001, 0.8, 9);
    Graph planted = base;
    planted.edges.front() ^= 1;
    planted.edges[planted.numEdges() / 2] ^= 1;
    planted.edges.back() ^= 1;
    writeCacheFile(cache_file, planted, 300001, planted.numEdges(), 0);
    const Graph loaded = Graph::powerLawCached(100000, 300001, 0.8, 9);
    EXPECT_EQ(loaded.num_vertices, planted.num_vertices);
    EXPECT_EQ(loaded.offsets, planted.offsets);
    EXPECT_EQ(loaded.edges, planted.edges);

    // A flipped byte in the second chunk fails the checksum: rebuilt.
    flipFileByte(cache_file, 64 + (1 << 20) + 12345);
    const Graph rebuilt = Graph::powerLawCached(100000, 300001, 0.8, 9);
    EXPECT_EQ(rebuilt.offsets, base.offsets);
    EXPECT_EQ(rebuilt.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

TEST(Graph, DiskCacheRejectsAFileOneByteTooLong)
{
    const std::string dir = freshCacheDir("rmcc_graph_long_test");
    const std::string cache_file =
        dir + "/rmcc_graph_v2_3e8_1f40_3fe999999999999a_9.bin";
    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    Graph planted = base;
    planted.edges[7] ^= 1;

    // Control: the exact file is accepted as it stands.
    writeCacheFile(cache_file, planted, 8000, planted.numEdges(), 0);
    EXPECT_EQ(Graph::powerLawCached(1000, 8000, 0.8, 9).edges,
              planted.edges);

    // The same file with one trailing byte is rejected and rebuilt.
    writeCacheFile(cache_file, planted, 8000, planted.numEdges(), 1);
    const Graph g = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(g.offsets, base.offsets);
    EXPECT_EQ(g.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

TEST(Graph, DiskCacheRejectsAHeaderClaimingMoreEdgesThanTheFileHolds)
{
    // The header and checksum describe 8000 edges, the file holds 7000:
    // the size check rejects it before any payload read, so the loader
    // never reads past the end of the file.
    const std::string dir = freshCacheDir("rmcc_graph_short_test");
    const std::string cache_file =
        dir + "/rmcc_graph_v2_3e8_1f40_3fe999999999999a_9.bin";
    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    Graph planted = base;
    planted.edges[7] ^= 1;
    writeCacheFile(cache_file, planted, 8000, 7000, 0);
    const Graph g = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(g.offsets, base.offsets);
    EXPECT_EQ(g.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

TEST(Graph, DiskCacheFileBytesArePinned)
{
    // The bytes of a written cache file, pinned against the writer that
    // introduced format version 2, so every version-2 file on disk is
    // still one this loader reads (the warm load below).
    const std::string dir = freshCacheDir("rmcc_graph_pinned_test");
    const std::string cache_file =
        dir + "/rmcc_graph_v2_3e8_1f40_3fe999999999999a_9.bin";
    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    (void)Graph::powerLawCached(1000, 8000, 0.8, 9); // populate
    std::ifstream f(cache_file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), 64u + 1001 * 8 + 8000 * 4);
    EXPECT_EQ(util::checksum64(bytes), 0xa553af7c44930ee9ULL);
    const Graph warm = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(warm.offsets, base.offsets);
    EXPECT_EQ(warm.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

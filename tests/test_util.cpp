/**
 * @file
 * Unit tests for the util module: RNG determinism and distributions,
 * statistics, bit packing, table rendering, the thread pool, and the
 * shared checksum.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/bitvec.hpp"
#include "util/checksum.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace rmcc::util;

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(pool, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    parallelFor(pool, 8, [&](std::size_t i) { order.push_back(i); });
    std::vector<std::size_t> expected(8);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ReusableAcrossPhases)
{
    ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int phase = 0; phase < 4; ++phase)
        parallelFor(pool, 50, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, WaitRethrowsFirstJobException)
{
    ThreadPool pool(2);
    EXPECT_THROW(parallelFor(pool, 16,
                             [&](std::size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The pool must still be usable after an exception.
    std::atomic<int> ran{0};
    parallelFor(pool, 4, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, EnvJobsParsesRmccJobs)
{
    setenv("RMCC_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::envJobs(), 3u);
    setenv("RMCC_JOBS", "1", 1);
    EXPECT_EQ(ThreadPool::envJobs(), 1u);
    // Garbage or non-positive values are rejected loudly: a typo used to
    // silently fall back to hardware concurrency and run at a surprise
    // width for hours.
    setenv("RMCC_JOBS", "banana", 1);
    EXPECT_THROW(ThreadPool::envJobs(), std::runtime_error);
    setenv("RMCC_JOBS", "0", 1);
    EXPECT_THROW(ThreadPool::envJobs(), std::runtime_error);
    setenv("RMCC_JOBS", "-2", 1);
    EXPECT_THROW(ThreadPool::envJobs(), std::runtime_error);
    setenv("RMCC_JOBS", "3x", 1);
    EXPECT_THROW(ThreadPool::envJobs(), std::runtime_error);
    unsetenv("RMCC_JOBS");
    EXPECT_GE(ThreadPool::envJobs(), 1u);
}

TEST(EnvParse, UnsignedAcceptsPlainDecimalOnly)
{
    setenv("RMCC_TEST_ENV", "42", 1);
    EXPECT_EQ(envUnsigned("RMCC_TEST_ENV"), 42u);
    EXPECT_EQ(envUnsignedOr("RMCC_TEST_ENV", 7), 42u);
    setenv("RMCC_TEST_ENV", "0", 1);
    EXPECT_EQ(envUnsigned("RMCC_TEST_ENV"), 0u);
    EXPECT_THROW(envPositive("RMCC_TEST_ENV"), std::runtime_error);
    unsetenv("RMCC_TEST_ENV");
    EXPECT_EQ(envUnsigned("RMCC_TEST_ENV"), std::nullopt);
    EXPECT_EQ(envUnsignedOr("RMCC_TEST_ENV", 7), 7u);
    EXPECT_EQ(envPositive("RMCC_TEST_ENV"), std::nullopt);
    setenv("RMCC_TEST_ENV", "", 1);
    EXPECT_EQ(envUnsigned("RMCC_TEST_ENV"), std::nullopt);

    for (const char *bad :
         {"banana", "12banana", " 12", "12 ", "+5", "-5", "0x10",
          "99999999999999999999999999"}) {
        setenv("RMCC_TEST_ENV", bad, 1);
        EXPECT_THROW(envUnsigned("RMCC_TEST_ENV"), std::runtime_error)
            << "value '" << bad << "' should be rejected";
        EXPECT_THROW(envUnsignedOr("RMCC_TEST_ENV", 7), std::runtime_error)
            << "fallback must not mask garbage '" << bad << "'";
    }
    unsetenv("RMCC_TEST_ENV");
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000003ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(11);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.nextInRange(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        hit_lo |= v == 10;
        hit_hi |= v == 13;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(17);
    int heads = 0;
    for (int i = 0; i < 20000; ++i)
        heads += rng.nextBool(0.3);
    EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanApproximatelyCorrect)
{
    Rng rng(19);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += rng.nextGeometric(5.0);
    EXPECT_NEAR(sum / 20000.0, 5.0, 0.5);
}

TEST(Rng, ForkIndependence)
{
    Rng a(23);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(29);
    ZipfSampler zipf(1000, 1.0);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, AllRanksReachable)
{
    Rng rng(31);
    ZipfSampler zipf(4, 0.5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i)
        seen.insert(zipf(rng));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, EmptyIsSafe)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndQuantiles)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.bucketCount(0), 10u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 10.0);
}

TEST(Histogram, OutOfRangeCounted)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 2u);
}

TEST(Stats, GeomeanOfPowers)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Stats, GeomeanSkipsZeros)
{
    EXPECT_NEAR(geomean({0.0, 4.0, 4.0}), 4.0, 1e-9);
}

TEST(StatSet, IncSetGetRatio)
{
    StatSet s;
    s.inc("a");
    s.inc("a", 2.0);
    s.set("b", 6.0);
    EXPECT_DOUBLE_EQ(s.get("a"), 3.0);
    EXPECT_DOUBLE_EQ(s.ratio("a", "b"), 0.5);
    EXPECT_DOUBLE_EQ(s.ratio("a", "missing"), 0.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
}

TEST(StatSet, DiffIsWindowed)
{
    StatSet s;
    s.inc("x", 5);
    StatSet snap = s;
    s.inc("x", 7);
    s.inc("y", 2);
    StatSet d = s.diff(snap);
    EXPECT_DOUBLE_EQ(d.get("x"), 7.0);
    EXPECT_DOUBLE_EQ(d.get("y"), 2.0);
}

TEST(StatSet, HandleAndStringApiProduceIdenticalOutput)
{
    StatSet via_handle, via_string;
    StatHandle hx = via_handle.handle("x.count");
    StatHandle hy = via_handle.handle("y.sum");
    EXPECT_TRUE(hx.valid());
    via_handle.inc(hx);
    via_handle.inc(hx, 2.5);
    via_handle.set(hy, 7.0);
    via_string.inc("x.count");
    via_string.inc("x.count", 2.5);
    via_string.set("y.sum", 7.0);
    EXPECT_EQ(via_handle.all(), via_string.all());
    EXPECT_DOUBLE_EQ(via_handle.get(hx), via_string.get("x.count"));
    EXPECT_DOUBLE_EQ(via_handle.ratio("x.count", "y.sum"),
                     via_string.ratio("x.count", "y.sum"));
    StatSet d = via_handle.diff(via_string);
    EXPECT_DOUBLE_EQ(d.get("x.count"), 0.0);
}

TEST(StatSet, RegisteredButUnwrittenSlotsStayInvisible)
{
    // Pre-resolving handles must not change reported results: a slot only
    // appears in all()/merge()/diff() once inc()/set() touched it.
    StatSet s;
    s.handle("never.written");
    s.inc("real", 3.0);
    EXPECT_EQ(s.all().size(), 1u);
    EXPECT_EQ(s.all().count("never.written"), 0u);
    StatSet other;
    other.merge(s);
    EXPECT_EQ(other.all().size(), 1u);
    StatSet d = s.diff(StatSet{});
    EXPECT_EQ(d.all().size(), 1u);
}

TEST(StatSet, HandleOpsPerformNoStringLookups)
{
    StatSet s;
    const StatHandle h = s.handle("hot.counter");
    const std::uint64_t before = StatSet::stringLookups();
    for (int i = 0; i < 1000; ++i)
        s.inc(h);
    s.set(h, 5.0);
    (void)s.get(h);
    EXPECT_EQ(StatSet::stringLookups(), before);
    s.inc("hot.counter");
    EXPECT_GT(StatSet::stringLookups(), before);
}

TEST(EnvParse, ChoiceAcceptsListedValuesOnly)
{
    const std::vector<std::string> choices = {"auto", "hw", "sw"};
    unsetenv("RMCC_TEST_CHOICE");
    EXPECT_EQ(envChoice("RMCC_TEST_CHOICE", choices, "auto"), "auto");
    setenv("RMCC_TEST_CHOICE", "", 1);
    EXPECT_EQ(envChoice("RMCC_TEST_CHOICE", choices, "auto"), "auto");
    for (const char *good : {"auto", "hw", "sw"}) {
        setenv("RMCC_TEST_CHOICE", good, 1);
        EXPECT_EQ(envChoice("RMCC_TEST_CHOICE", choices, "auto"), good);
    }
    for (const char *bad : {"HW", " hw", "hw ", "banana", "auto,hw"}) {
        setenv("RMCC_TEST_CHOICE", bad, 1);
        EXPECT_THROW(envChoice("RMCC_TEST_CHOICE", choices, "auto"),
                     std::runtime_error)
            << "value '" << bad << "' should be rejected";
    }
    unsetenv("RMCC_TEST_CHOICE");
}

TEST(BitVec, RoundTripVariousWidths)
{
    BitVec512 bits;
    bits.set(0, 56, 0x00ffeeddccbbaaULL);
    bits.set(56, 8, 0xa5);
    bits.set(64, 3, 5);
    bits.set(509, 3, 7);
    EXPECT_EQ(bits.get(0, 56), 0x00ffeeddccbbaaULL);
    EXPECT_EQ(bits.get(56, 8), 0xa5u);
    EXPECT_EQ(bits.get(64, 3), 5u);
    EXPECT_EQ(bits.get(509, 3), 7u);
}

TEST(BitVec, CrossWordBoundary)
{
    BitVec512 bits;
    bits.set(60, 20, 0xabcde);
    EXPECT_EQ(bits.get(60, 20), 0xabcdeu);
    // Neighbours untouched.
    EXPECT_EQ(bits.get(0, 60), 0u);
    EXPECT_EQ(bits.get(80, 64), 0u);
}

TEST(BitVec, OverwriteClearsOldBits)
{
    BitVec512 bits;
    bits.set(10, 8, 0xff);
    bits.set(10, 8, 0x01);
    EXPECT_EQ(bits.get(10, 8), 0x01u);
    EXPECT_EQ(bits.popcount(), 1u);
}

TEST(BitVec, FullWidthField)
{
    BitVec512 bits;
    bits.set(64, 64, ~0ULL);
    EXPECT_EQ(bits.get(64, 64), ~0ULL);
    EXPECT_EQ(bits.popcount(), 64u);
}

TEST(BitWidth, Values)
{
    EXPECT_EQ(bitWidth(0), 0u);
    EXPECT_EQ(bitWidth(1), 1u);
    EXPECT_EQ(bitWidth(7), 3u);
    EXPECT_EQ(bitWidth(8), 4u);
}

TEST(Table, TextAndCsvRendering)
{
    Table t("demo", {"name", "v1", "v2"});
    t.addRow("row", {1.25, 2.5}, 2);
    const std::string text = t.toText();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("1.25"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("name,v1,v2"), std::string::npos);
    EXPECT_NE(csv.find("row,1.25,2.50"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.923, 1), "92.3%");
}

TEST(Zipf, DeterministicForEqualSeeds)
{
    // The sampler is pure (the Rng carries all the state): equal seeds
    // must give identical rank streams — the property the tenant mixer's
    // reproducibility rests on.
    ZipfSampler zipf(1 << 20, 0.99);
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t ra = zipf(a);
        EXPECT_EQ(ra, zipf(b));
        diverged |= ra != zipf(c);
    }
    EXPECT_TRUE(diverged);
}

TEST(Zipf, MassSumsToOneAndSteepensWithSkew)
{
    const ZipfSampler flat(64, 0.5), steep(64, 2.0);
    double total = 0.0;
    for (std::uint64_t r = 0; r < 64; ++r)
        total += flat.mass(r);
    EXPECT_NEAR(total, 1.0, 1e-9);
    // A larger exponent concentrates mass on the low ranks.
    EXPECT_GT(steep.mass(0), flat.mass(0));
    EXPECT_LT(steep.mass(63), flat.mass(63));
    EXPECT_GT(flat.mass(0), flat.mass(1));
}

TEST(Checksum, MatchesPublishedXxh64Values)
{
    // Published XXH64 (seed 0) values: the empty input, a tail-only input
    // and one that fills a 32-byte block before its tail.
    EXPECT_EQ(checksum64(""), 0xef46db3751d8e999ULL);
    EXPECT_EQ(checksum64("abc"), 0x44bc2cf5ad770999ULL);
    EXPECT_EQ(checksum64("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ULL);
}

namespace
{

/** 1007 pseudo-random bytes: 31 whole 32-byte blocks, then 8 + 4 + 3. */
std::vector<unsigned char>
checksumInput()
{
    std::vector<unsigned char> buf(31 * 32 + 15);
    Rng rng(7);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.next());
    return buf;
}

} // namespace

TEST(Checksum, EverySingleByteFlipChangesTheResult)
{
    std::vector<unsigned char> buf = checksumInput();
    const std::uint64_t base = checksum64(buf.data(), buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
        for (const unsigned char mask : {0x01, 0x80, 0xff}) {
            buf[i] ^= mask;
            EXPECT_NE(checksum64(buf.data(), buf.size()), base)
                << "byte " << i << " mask " << int(mask);
            buf[i] ^= mask;
        }
    }
}

TEST(Checksum, EveryLengthChangesTheResult)
{
    // Appending a zero byte must change the result too, so the length is
    // mixed in and not only the bytes.
    const std::vector<unsigned char> zeros(100, 0);
    std::set<std::uint64_t> seen;
    for (std::size_t n = 0; n <= zeros.size(); ++n)
        EXPECT_TRUE(seen.insert(checksum64(zeros.data(), n)).second)
            << "length " << n;
    const std::vector<unsigned char> buf = checksumInput();
    EXPECT_NE(checksum64(buf.data(), buf.size()),
              checksum64(buf.data(), buf.size() - 1));
}

TEST(Checksum, UnalignedInputHashesLikeAnAlignedCopy)
{
    const std::vector<unsigned char> buf = checksumInput();
    std::vector<unsigned char> shifted(buf.size() + 3);
    std::memcpy(shifted.data() + 3, buf.data(), buf.size());
    EXPECT_EQ(checksum64(shifted.data() + 3, buf.size()),
              checksum64(buf.data(), buf.size()));
}

TEST(Checksum, SeedChangesTheResult)
{
    const std::vector<unsigned char> buf = checksumInput();
    EXPECT_NE(checksum64(buf.data(), buf.size(), 1),
              checksum64(buf.data(), buf.size()));
}

TEST(Checksum, EverySplitOfAShortBufferMatchesOneShot)
{
    // Lengths 0-100 cover an empty stream, tail-only streams and streams
    // of up to three stripes; every split point crosses the held-stripe
    // paths of update().
    const std::vector<unsigned char> buf = checksumInput();
    for (std::size_t len = 0; len <= 100; ++len) {
        const std::uint64_t want = checksum64(buf.data(), len, 3);
        for (std::size_t cut = 0; cut <= len; ++cut) {
            ChecksumStream s(3);
            s.update(buf.data(), cut);
            s.update(buf.data() + cut, len - cut);
            EXPECT_EQ(s.digest(), want) << "len " << len << " cut " << cut;
        }
    }
}

TEST(Checksum, RandomSplitsOfAMebibyteMatchOneShot)
{
    std::vector<unsigned char> buf(1 << 20);
    Rng rng(11);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.next());
    const std::uint64_t want = checksum64(buf.data(), buf.size());
    // Pinned against the one-shot implementation the stream replaced, so
    // a long input keeps its value, not only the published short vectors.
    EXPECT_EQ(want, 0xd428db3e78590b1bULL);
    for (int round = 0; round < 8; ++round) {
        ChecksumStream s;
        std::size_t at = 0;
        while (at < buf.size()) {
            // Pieces from 1 byte to 64 KiB, most not a stripe multiple.
            const std::size_t piece = std::min<std::size_t>(
                buf.size() - at, 1 + rng.nextBelow(round % 2 ? 97 : 65536));
            s.update(buf.data() + at, piece);
            at += piece;
        }
        EXPECT_EQ(s.digest(), want) << "round " << round;
    }
}

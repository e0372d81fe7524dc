/**
 * @file
 * Microbenchmarks (google-benchmark): AES, CLMUL, GF multiply, the two
 * OTP constructions, and MAC generation — the datapath primitives whose
 * hardware latencies Table I parameterizes.
 *
 * AES benches report blocks/sec and CLMUL benches ops/sec (the
 * items_per_second counter) for both the fast paths (T-table AES,
 * 4-bit-windowed CLMUL) and the byte/bit-wise reference paths, so the
 * software speedup is visible directly in the output.
 */
#include <benchmark/benchmark.h>

#include "crypto/mac.hpp"
#include "crypto/otp.hpp"

using namespace rmcc::crypto;

static void
BM_Aes128Encrypt(benchmark::State &state)
{
    const Aes aes = Aes::fromSeed(1);
    Block128 b = makeBlock(1, 2);
    for (auto _ : state) {
        b = aes.encrypt(b);
        benchmark::DoNotOptimize(b);
    }
    state.SetItemsProcessed(state.iterations()); // blocks/sec
}
BENCHMARK(BM_Aes128Encrypt);

static void
BM_Aes128EncryptReference(benchmark::State &state)
{
    const Aes aes = Aes::fromSeed(1);
    Block128 b = makeBlock(1, 2);
    for (auto _ : state) {
        b = aes.encryptReference(b);
        benchmark::DoNotOptimize(b);
    }
    state.SetItemsProcessed(state.iterations()); // blocks/sec
}
BENCHMARK(BM_Aes128EncryptReference);

static void
BM_Aes256Encrypt(benchmark::State &state)
{
    const Aes aes = Aes::fromSeed(1, Aes::KeySize::k256);
    Block128 b = makeBlock(1, 2);
    for (auto _ : state) {
        b = aes.encrypt(b);
        benchmark::DoNotOptimize(b);
    }
    state.SetItemsProcessed(state.iterations()); // blocks/sec
}
BENCHMARK(BM_Aes256Encrypt);

static void
BM_Aes256EncryptReference(benchmark::State &state)
{
    const Aes aes = Aes::fromSeed(1, Aes::KeySize::k256);
    Block128 b = makeBlock(1, 2);
    for (auto _ : state) {
        b = aes.encryptReference(b);
        benchmark::DoNotOptimize(b);
    }
    state.SetItemsProcessed(state.iterations()); // blocks/sec
}
BENCHMARK(BM_Aes256EncryptReference);

static void
BM_Clmul64Windowed(benchmark::State &state)
{
    std::uint64_t a = 0x0123456789abcdefULL;
    const std::uint64_t b = 0xdeadbeefcafebabeULL;
    for (auto _ : state) {
        const auto [lo, hi] = clmul64(a, b);
        benchmark::DoNotOptimize(lo);
        benchmark::DoNotOptimize(hi);
        a ^= lo;
    }
    state.SetItemsProcessed(state.iterations()); // ops/sec
}
BENCHMARK(BM_Clmul64Windowed);

static void
BM_Clmul64Reference(benchmark::State &state)
{
    std::uint64_t a = 0x0123456789abcdefULL;
    const std::uint64_t b = 0xdeadbeefcafebabeULL;
    for (auto _ : state) {
        const auto [lo, hi] = clmul64Reference(a, b);
        benchmark::DoNotOptimize(lo);
        benchmark::DoNotOptimize(hi);
        a ^= lo;
    }
    state.SetItemsProcessed(state.iterations()); // ops/sec
}
BENCHMARK(BM_Clmul64Reference);

static void
BM_Clmul128(benchmark::State &state)
{
    Block128 a = makeBlock(0x0123456789abcdefULL, 0xfedcba9876543210ULL);
    const Block128 b = makeBlock(0xdeadbeefULL, 0xcafebabeULL);
    for (auto _ : state) {
        const U256 p = clmul128(a, b);
        benchmark::DoNotOptimize(p);
        a[0] ^= static_cast<std::uint8_t>(p.limb[0]);
    }
    state.SetItemsProcessed(state.iterations()); // ops/sec
}
BENCHMARK(BM_Clmul128);

static void
BM_TruncmulCombine(benchmark::State &state)
{
    Block128 a = makeBlock(1, 2), b = makeBlock(3, 4);
    for (auto _ : state) {
        a = truncmulMiddle(a, b);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_TruncmulCombine);

static void
BM_Gf128Mul(benchmark::State &state)
{
    Block128 a = makeBlock(1, 2);
    const Block128 b = makeBlock(3, 4);
    for (auto _ : state) {
        a = gf128Mul(a, b);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_Gf128Mul);

static void
BM_BaselineOtp(benchmark::State &state)
{
    const BaselineOtpEngine otp(Aes::fromSeed(1), Aes::fromSeed(2));
    std::uint64_t ctr = 0;
    for (auto _ : state) {
        const Block128 pad = otp.encryptionOtp(0x1000, 0, ++ctr);
        benchmark::DoNotOptimize(pad);
    }
}
BENCHMARK(BM_BaselineOtp);

static void
BM_RmccOtpFull(benchmark::State &state)
{
    const RmccOtpEngine otp(Aes::fromSeed(1), Aes::fromSeed(2));
    std::uint64_t ctr = 0;
    for (auto _ : state) {
        const Block128 pad = otp.encryptionOtp(0x1000, 0, ++ctr);
        benchmark::DoNotOptimize(pad);
    }
}
BENCHMARK(BM_RmccOtpFull);

static void
BM_RmccOtpMemoized(benchmark::State &state)
{
    // The memoized path: counter-only AES precomputed, combine only.
    const RmccOtpEngine otp(Aes::fromSeed(1), Aes::fromSeed(2));
    const Block128 ctr_only = otp.counterOnlyEnc(12345);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        const Block128 pad = RmccOtpEngine::combine(
            ctr_only, otp.addressOnlyEnc(addr += 64, 0));
        benchmark::DoNotOptimize(pad);
    }
}
BENCHMARK(BM_RmccOtpMemoized);

static void
BM_BlockCodecRmcc(benchmark::State &state)
{
    // Whole-block encode via the per-block OTP path (counter-only AES
    // computed once per block, not once per word).
    const RmccOtpEngine otp(Aes::fromSeed(1), Aes::fromSeed(2));
    const BlockCodec codec(otp);
    DataBlock block;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        block[w] = makeBlock(w, w + 1);
    std::uint64_t ctr = 0;
    for (auto _ : state) {
        block = codec.encode(block, 0x1000, ++ctr);
        benchmark::DoNotOptimize(block);
    }
    state.SetItemsProcessed(state.iterations()); // 64 B blocks/sec
}
BENCHMARK(BM_BlockCodecRmcc);

static void
BM_Mac64B(benchmark::State &state)
{
    const MacEngine mac(1);
    const RmccOtpEngine otp(Aes::fromSeed(1), Aes::fromSeed(2));
    const Block128 pad = otp.macOtp(0x1000, 5);
    DataBlock block;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        block[w] = makeBlock(w, w + 1);
    for (auto _ : state) {
        const std::uint64_t m = mac.mac(block, pad);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_Mac64B);

BENCHMARK_MAIN();

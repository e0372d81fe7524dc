/**
 * @file
 * Crypto tests: FIPS-197 AES vectors, CLMUL/GF algebra, OTP construction
 * properties (domain separation, non-commutativity, determinism), block
 * codec round trips, and MAC tamper detection.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "crypto/aes.hpp"
#include "crypto/clmul.hpp"
#include "crypto/dispatch.hpp"
#include "crypto/mac.hpp"
#include "crypto/otp.hpp"

using namespace rmcc::crypto;

namespace
{

Block128
hexBlock(const char *hex)
{
    Block128 b{};
    for (int i = 0; i < 16; ++i) {
        unsigned v = 0;
        sscanf(hex + 2 * i, "%2x", &v);
        b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    }
    return b;
}

} // namespace

TEST(Aes, Fips197Aes128Vector)
{
    // FIPS-197 Appendix C.1.
    std::array<std::uint8_t, 16> key;
    for (int i = 0; i < 16; ++i)
        key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    const Aes aes = Aes::fromKey128(key);
    const Block128 pt = hexBlock("00112233445566778899aabbccddeeff");
    const Block128 expect = hexBlock("69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes, Fips197Aes256Vector)
{
    // FIPS-197 Appendix C.3.
    std::array<std::uint8_t, 32> key;
    for (int i = 0; i < 32; ++i)
        key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    const Aes aes = Aes::fromKey256(key);
    const Block128 pt = hexBlock("00112233445566778899aabbccddeeff");
    const Block128 expect = hexBlock("8ea2b7ca516745bfeafc49904b496089");
    EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes, ReferencePathMatchesNistVectors)
{
    // The byte-wise oracle must itself pass FIPS-197 Appendix C.
    std::array<std::uint8_t, 16> key128;
    for (int i = 0; i < 16; ++i)
        key128[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    std::array<std::uint8_t, 32> key256;
    for (int i = 0; i < 32; ++i)
        key256[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    const Block128 pt = hexBlock("00112233445566778899aabbccddeeff");
    EXPECT_EQ(Aes::fromKey128(key128).encryptReference(pt),
              hexBlock("69c4e0d86a7b0430d8cdb78070b4c55a"));
    EXPECT_EQ(Aes::fromKey256(key256).encryptReference(pt),
              hexBlock("8ea2b7ca516745bfeafc49904b496089"));
}

TEST(Aes, TTableMatchesReferenceOnRandomInputs)
{
    // The T-table fast path must agree with the byte-wise FIPS-197
    // rounds on random keys and plaintexts, for both key sizes.
    std::mt19937_64 rng(0xc0ffee);
    for (int trial = 0; trial < 256; ++trial) {
        const Aes aes = Aes::fromSeed(rng(), trial % 2 == 0
                                                 ? Aes::KeySize::k128
                                                 : Aes::KeySize::k256);
        const Block128 pt = makeBlock(rng(), rng());
        EXPECT_EQ(aes.encrypt(pt), aes.encryptReference(pt));
    }
}

TEST(Aes, RoundCounts)
{
    EXPECT_EQ(Aes::fromSeed(1, Aes::KeySize::k128).rounds(), 10);
    EXPECT_EQ(Aes::fromSeed(1, Aes::KeySize::k256).rounds(), 14);
}

TEST(Aes, DeterministicAndKeyDependent)
{
    const Aes a = Aes::fromSeed(42);
    const Aes b = Aes::fromSeed(42);
    const Aes c = Aes::fromSeed(43);
    const Block128 pt = makeBlock(1, 2);
    EXPECT_EQ(a.encrypt(pt), b.encrypt(pt));
    EXPECT_NE(a.encrypt(pt), c.encrypt(pt));
}

TEST(Aes, AvalancheOnPlaintextBit)
{
    const Aes aes = Aes::fromSeed(7);
    const Block128 base = aes.encrypt(makeBlock(0, 0));
    const Block128 flip = aes.encrypt(makeBlock(0, 1));
    int differing_bits = 0;
    for (std::size_t i = 0; i < 16; ++i)
        differing_bits += __builtin_popcount(base[i] ^ flip[i]);
    // Expect roughly half of the 128 bits to flip.
    EXPECT_GT(differing_bits, 40);
    EXPECT_LT(differing_bits, 88);
}

TEST(BlockHelpers, MakeSplitRoundTrip)
{
    const Block128 b = makeBlock(0x1122334455667788ULL,
                                 0x99aabbccddeeff00ULL);
    const auto [hi, lo] = splitBlock(b);
    EXPECT_EQ(hi, 0x1122334455667788ULL);
    EXPECT_EQ(lo, 0x99aabbccddeeff00ULL);
    EXPECT_EQ(b[0], 0x11);
    EXPECT_EQ(b[15], 0x00);
}

TEST(Clmul, KnownSmallProducts)
{
    // (x+1)(x+1) = x^2+1 in GF(2)[x]: 3*3 = 5.
    auto [lo, hi] = clmul64(3, 3);
    EXPECT_EQ(lo, 5u);
    EXPECT_EQ(hi, 0u);
    // x^63 * x = x^64 -> bit 0 of the high word.
    std::tie(lo, hi) = clmul64(1ULL << 63, 2);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
}

TEST(Clmul, WindowedMatchesBitwiseReference)
{
    // Edge cases the 4-bit windows must not mangle.
    const std::uint64_t edges[] = {0ULL, 1ULL, 0xfULL, 1ULL << 63,
                                   ~0ULL};
    for (std::uint64_t a : edges)
        for (std::uint64_t b : edges)
            EXPECT_EQ(clmul64(a, b), clmul64Reference(a, b))
                << "a=" << a << " b=" << b;
    std::mt19937_64 rng(0x5eed);
    for (int trial = 0; trial < 1000; ++trial) {
        const std::uint64_t a = rng(), b = rng();
        EXPECT_EQ(clmul64(a, b), clmul64Reference(a, b))
            << "a=" << a << " b=" << b;
    }
}

TEST(Clmul, CommutativeAndDistributive)
{
    const Block128 a = makeBlock(0x0123456789abcdefULL, 0xfedcba9876543210ULL);
    const Block128 b = makeBlock(0xdeadbeefcafebabeULL, 0x0f1e2d3c4b5a6978ULL);
    const Block128 c = makeBlock(7, 13);
    EXPECT_EQ(clmul128(a, b), clmul128(b, a));
    // a*(b^c) == a*b ^ a*c.
    const U256 lhs = clmul128(a, b ^ c);
    const U256 ab = clmul128(a, b);
    const U256 ac = clmul128(a, c);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lhs.limb[static_cast<std::size_t>(i)],
                  ab.limb[static_cast<std::size_t>(i)] ^
                      ac.limb[static_cast<std::size_t>(i)]);
}

TEST(Clmul, MultiplyByOneIsIdentity)
{
    const Block128 a = makeBlock(0x123456789abcdef0ULL, 0x0fedcba987654321ULL);
    const Block128 one = makeBlock(0, 1);
    const U256 p = clmul128(a, one);
    const auto [hi, lo] = splitBlock(a);
    EXPECT_EQ(p.limb[0], lo);
    EXPECT_EQ(p.limb[1], hi);
    EXPECT_EQ(p.limb[2], 0u);
    EXPECT_EQ(p.limb[3], 0u);
}

TEST(Clmul, TruncMiddleKeepsMiddleBits)
{
    // a = 1, b = x^64: product = x^64 -> middle window bit 0.
    const Block128 one = makeBlock(0, 1);
    const Block128 x64 = makeBlock(1, 0);
    const Block128 mid = truncmulMiddle(one, x64);
    EXPECT_EQ(mid, makeBlock(0, 1));
}

TEST(Gf128, IdentityAndCommutativity)
{
    const Block128 one = makeBlock(0, 1);
    const Block128 a = makeBlock(0xa5a5a5a5a5a5a5a5ULL, 0x5a5a5a5a5a5a5a5aULL);
    const Block128 b = makeBlock(3, 17);
    EXPECT_EQ(gf128Mul(a, one), a);
    EXPECT_EQ(gf128Mul(a, b), gf128Mul(b, a));
}

TEST(Gf128, ReductionMatchesPolynomial)
{
    // x^127 * x = x^128 = x^7 + x^2 + x + 1 (mod the GCM polynomial).
    const Block128 x127 = makeBlock(1ULL << 63, 0);
    const Block128 x = makeBlock(0, 2);
    EXPECT_EQ(gf128Mul(x127, x), makeBlock(0, 0x87));
}

TEST(Gf128, DistributesOverXor)
{
    const Block128 a = makeBlock(0x1111, 0x2222);
    const Block128 b = makeBlock(0x3333, 0x4444);
    const Block128 k = makeBlock(0xdeadbeef, 0xcafebabe);
    EXPECT_EQ(gf128Mul(a ^ b, k), gf128Mul(a, k) ^ gf128Mul(b, k));
}

class OtpEngines : public ::testing::Test
{
  protected:
    Aes enc_ = Aes::fromSeed(100);
    Aes mac_ = Aes::fromSeed(200);
    BaselineOtpEngine baseline_{enc_, mac_};
    RmccOtpEngine rmcc_{enc_, mac_};
};

TEST_F(OtpEngines, BaselineCounterChangesOtp)
{
    const auto o1 = baseline_.encryptionOtp(0x1000, 0, 5);
    const auto o2 = baseline_.encryptionOtp(0x1000, 0, 6);
    EXPECT_NE(o1, o2);
}

TEST_F(OtpEngines, BaselineWordIndexChangesOtp)
{
    EXPECT_NE(baseline_.encryptionOtp(0x1000, 0, 5),
              baseline_.encryptionOtp(0x1000, 1, 5));
}

TEST_F(OtpEngines, EncryptionAndMacOtpsDiffer)
{
    EXPECT_NE(baseline_.encryptionOtp(0x1000, 0, 5),
              baseline_.macOtp(0x1000, 5));
    EXPECT_NE(rmcc_.encryptionOtp(0x1000, 0, 5), rmcc_.macOtp(0x1000, 5));
}

TEST_F(OtpEngines, RmccSwapAddressCounterDiffers)
{
    // Type-A repeat elimination (Sec IV-D1): OTP(addr=x, ctr=y) must
    // differ from OTP(addr=y, ctr=x) thanks to the zero padding.
    const auto o1 = rmcc_.encryptionOtp(77, 0, 99);
    const auto o2 = rmcc_.encryptionOtp(99, 0, 77);
    EXPECT_NE(o1, o2);
}

TEST_F(OtpEngines, RmccCombineMatchesFullComputation)
{
    const auto ctr_only = rmcc_.counterOnlyEnc(12345);
    const auto addr_only = rmcc_.addressOnlyEnc(0xabcd00, 2);
    EXPECT_EQ(RmccOtpEngine::combine(ctr_only, addr_only),
              rmcc_.encryptionOtp(0xabcd00, 2, 12345));
}

TEST_F(OtpEngines, RmccMemoizedValueReusableAcrossAddresses)
{
    // The same counter-only result combines with different address-only
    // results to give distinct, correct OTPs: the memoization premise.
    const auto ctr_only = rmcc_.counterOnlyEnc(777);
    const auto a = RmccOtpEngine::combine(ctr_only,
                                          rmcc_.addressOnlyEnc(0x1000, 0));
    const auto b = RmccOtpEngine::combine(ctr_only,
                                          rmcc_.addressOnlyEnc(0x2000, 0));
    EXPECT_NE(a, b);
    EXPECT_EQ(a, rmcc_.encryptionOtp(0x1000, 0, 777));
    EXPECT_EQ(b, rmcc_.encryptionOtp(0x2000, 0, 777));
}

TEST_F(OtpEngines, BlockOtpsMatchPerWordOtps)
{
    // The per-block fast path (RMCC: one counter-only AES per block)
    // must yield exactly the per-word OTPs.
    for (const OtpEngine *eng :
         {static_cast<const OtpEngine *>(&baseline_),
          static_cast<const OtpEngine *>(&rmcc_)}) {
        const auto pads = eng->encryptionOtps(0xbeef00, 321);
        for (unsigned w = 0; w < kWordsPerBlock; ++w)
            EXPECT_EQ(pads[w], eng->encryptionOtp(0xbeef00, w, 321));
    }
}

TEST_F(OtpEngines, CodecRoundTripsBothEngines)
{
    DataBlock block;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        block[w] = makeBlock(0x1111111111111111ULL * (w + 1), w);
    for (const OtpEngine *eng :
         {static_cast<const OtpEngine *>(&baseline_),
          static_cast<const OtpEngine *>(&rmcc_)}) {
        BlockCodec codec(*eng);
        const DataBlock ct = codec.encode(block, 0x40, 9);
        EXPECT_NE(ct, block);
        EXPECT_EQ(codec.encode(ct, 0x40, 9), block);
    }
}

TEST_F(OtpEngines, CiphertextDiffersPerCounter)
{
    DataBlock block{};
    BlockCodec codec(rmcc_);
    const DataBlock c1 = codec.encode(block, 0x40, 1);
    const DataBlock c2 = codec.encode(block, 0x40, 2);
    EXPECT_NE(c1, c2);
}

TEST(Mac, DetectsSingleBitTampering)
{
    const MacEngine mac(555);
    const RmccOtpEngine otp(Aes::fromSeed(1), Aes::fromSeed(2));
    DataBlock block;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        block[w] = makeBlock(w * 3 + 1, w * 7 + 5);
    const Block128 pad = otp.macOtp(0x80, 4);
    const std::uint64_t good = mac.mac(block, pad);
    // Flip every byte position once across the block.
    for (unsigned w = 0; w < kWordsPerBlock; ++w) {
        for (std::size_t byte = 0; byte < 16; byte += 5) {
            DataBlock tampered = block;
            tampered[w][byte] ^= 1;
            EXPECT_NE(mac.mac(tampered, pad), good)
                << "undetected flip at word " << w << " byte " << byte;
        }
    }
}

TEST(Mac, DetectsCounterReplay)
{
    const MacEngine mac(556);
    const RmccOtpEngine otp(Aes::fromSeed(3), Aes::fromSeed(4));
    DataBlock block{};
    const std::uint64_t m1 = mac.mac(block, otp.macOtp(0x80, 10));
    const std::uint64_t m2 = mac.mac(block, otp.macOtp(0x80, 11));
    EXPECT_NE(m1, m2);
}

TEST(Mac, DetectsRelocation)
{
    const MacEngine mac(557);
    const RmccOtpEngine otp(Aes::fromSeed(5), Aes::fromSeed(6));
    DataBlock block{};
    EXPECT_NE(mac.mac(block, otp.macOtp(0x100, 3)),
              mac.mac(block, otp.macOtp(0x140, 3)));
}

TEST(Mac, Is56Bits)
{
    const MacEngine mac(558);
    DataBlock block{};
    for (int i = 0; i < 50; ++i) {
        const Block128 pad = makeBlock(static_cast<std::uint64_t>(i), 0);
        EXPECT_LE(mac.mac(block, pad), kMacMask);
    }
}

TEST(Mac, ExplicitKeysReproducible)
{
    std::array<Block128, kWordsPerBlock> keys;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        keys[w] = makeBlock(w + 1, w + 2);
    const MacEngine a(keys), b(keys);
    DataBlock block;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        block[w] = makeBlock(w, ~w);
    EXPECT_EQ(a.dotProduct(block), b.dotProduct(block));
}

/** Property sweep: OTP uniqueness over (address, word, counter) grids. */
class OtpUniqueness : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OtpUniqueness, NoCollisionsInSmallGrid)
{
    const RmccOtpEngine otp(Aes::fromSeed(GetParam()),
                            Aes::fromSeed(GetParam() + 1));
    std::vector<Block128> otps;
    for (std::uint64_t addr = 0; addr < 4; ++addr)
        for (unsigned w = 0; w < 4; ++w)
            for (std::uint64_t ctr = 0; ctr < 4; ++ctr)
                otps.push_back(
                    otp.encryptionOtp(addr * 64, w, ctr));
    for (std::size_t i = 0; i < otps.size(); ++i)
        for (std::size_t j = i + 1; j < otps.size(); ++j)
            EXPECT_NE(otps[i], otps[j]) << "collision " << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OtpUniqueness,
                         ::testing::Values(1, 17, 3141, 65537));

// ---------------------------------------------------------------------------
// Runtime crypto dispatch (RMCC_CRYPTO_IMPL): the hardware AES-NI /
// PCLMULQDQ kernels and the software paths must be interchangeable
// bit-for-bit.  Tests force both directions in-process via setenv +
// reresolveCryptoDispatch() and restore the prior routing on exit.

namespace
{

/** Scoped forced dispatch; restores the previous env + routing. */
class ScopedImpl
{
  public:
    explicit ScopedImpl(const char *impl)
    {
        const char *prev = std::getenv("RMCC_CRYPTO_IMPL");
        had_prev_ = prev != nullptr;
        if (had_prev_)
            prev_ = prev;
        setenv("RMCC_CRYPTO_IMPL", impl, 1);
        rmcc::crypto::reresolveCryptoDispatch();
    }

    ~ScopedImpl()
    {
        if (had_prev_)
            setenv("RMCC_CRYPTO_IMPL", prev_.c_str(), 1);
        else
            unsetenv("RMCC_CRYPTO_IMPL");
        rmcc::crypto::reresolveCryptoDispatch();
    }

  private:
    bool had_prev_ = false;
    std::string prev_;
};

bool
hwAvailable()
{
    const auto cpu = rmcc::crypto::detectCpuFeatures();
    return cpu.aesni && cpu.pclmul;
}

} // namespace

TEST(Dispatch, ForcedSwNeverUsesHardware)
{
    ScopedImpl sw("sw");
    EXPECT_FALSE(rmcc::crypto::hwAesActive());
    EXPECT_FALSE(rmcc::crypto::hwClmulActive());
}

TEST(Dispatch, ForcedHwPassesNistVectors)
{
    if (!hwAvailable())
        GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ";
    ScopedImpl hw("hw");
    ASSERT_TRUE(rmcc::crypto::hwAesActive());
    ASSERT_TRUE(rmcc::crypto::hwClmulActive());
    // FIPS-197 Appendix C.1 / C.3 through the AES-NI kernel.
    std::array<std::uint8_t, 16> key128;
    for (int i = 0; i < 16; ++i)
        key128[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    std::array<std::uint8_t, 32> key256;
    for (int i = 0; i < 32; ++i)
        key256[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    const Block128 pt = hexBlock("00112233445566778899aabbccddeeff");
    EXPECT_EQ(Aes::fromKey128(key128).encrypt(pt),
              hexBlock("69c4e0d86a7b0430d8cdb78070b4c55a"));
    EXPECT_EQ(Aes::fromKey256(key256).encrypt(pt),
              hexBlock("8ea2b7ca516745bfeafc49904b496089"));
}

TEST(Dispatch, HwAndSwAgreeOnRandomBlocks)
{
    if (!hwAvailable())
        GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ";
    // 10k random (key, plaintext) pairs per primitive, each evaluated
    // with the dispatch forced to both directions.
    std::mt19937_64 rng(0xd15c0);
    for (int trial = 0; trial < 10000; ++trial) {
        const std::uint64_t seed = rng();
        const Aes aes = Aes::fromSeed(seed, trial % 2 == 0
                                                ? Aes::KeySize::k128
                                                : Aes::KeySize::k256);
        const Block128 pt = makeBlock(rng(), rng());
        const Block128 a = makeBlock(rng(), rng());
        const Block128 b = makeBlock(rng(), rng());
        Block128 ct_hw, ct_sw;
        U256 p_hw, p_sw;
        {
            ScopedImpl hw("hw");
            ct_hw = aes.encrypt(pt);
            p_hw = clmul128(a, b);
        }
        {
            ScopedImpl sw("sw");
            ct_sw = aes.encrypt(pt);
            p_sw = clmul128(a, b);
        }
        ASSERT_EQ(ct_hw, ct_sw) << "AES mismatch at trial " << trial;
        ASSERT_EQ(p_hw.limb, p_sw.limb)
            << "CLMUL mismatch at trial " << trial;
    }
}

TEST(Dispatch, ForcedHwThrowsWithoutCpuSupport)
{
    if (hwAvailable())
        GTEST_SKIP() << "CPU supports the hardware kernels";
    setenv("RMCC_CRYPTO_IMPL", "hw", 1);
    EXPECT_THROW(rmcc::crypto::reresolveCryptoDispatch(),
                 std::runtime_error);
    unsetenv("RMCC_CRYPTO_IMPL");
    rmcc::crypto::reresolveCryptoDispatch();
}

TEST(Dispatch, RejectsUnknownImplValue)
{
    setenv("RMCC_CRYPTO_IMPL", "fpga", 1);
    EXPECT_THROW(rmcc::crypto::reresolveCryptoDispatch(),
                 std::runtime_error);
    unsetenv("RMCC_CRYPTO_IMPL");
    rmcc::crypto::reresolveCryptoDispatch();
}

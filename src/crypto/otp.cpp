#include "crypto/otp.hpp"

namespace rmcc::crypto
{

namespace
{

/** Domain bytes ("mu" in paper Fig 2) separating OTP uses. */
constexpr std::uint64_t kMuEncrypt = 0xa5;
constexpr std::uint64_t kMuMac = 0x5a;

constexpr std::uint64_t kAddrMask = (1ULL << 48) - 1;

/**
 * Baseline AES input: hi = mu(8) | address(48) | word(8),
 * lo = counter(56) | zero pad(8).
 */
Block128
baselineInput(std::uint64_t mu, std::uint64_t address, unsigned word,
              std::uint64_t counter)
{
    const std::uint64_t hi =
        (mu << 56) | ((address & kAddrMask) << 8) | (word & 0xff);
    const std::uint64_t lo = (counter & kCounterMask) << 8;
    return makeBlock(hi, lo);
}

/** SplitMix64 finalizer: full-avalanche mix of one 64-bit word. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

DomainKeys
deriveDomainKeys(std::uint64_t master_seed, std::uint64_t domain)
{
    // Two independent avalanche chains per domain, one per schedule.  The
    // purpose constants keep enc/mac seeds unrelated, and the leading
    // mix64 of the tagged domain means even domain 0 derives seeds far
    // from master_seed itself — the platform schedules fromSeed(seed) /
    // fromSeed(seed + 0x9e3779b9) are never aliased by any domain.
    const std::uint64_t enc_seed =
        mix64(master_seed ^ mix64(domain ^ 0x656e63ULL)); // "enc"
    const std::uint64_t mac_seed =
        mix64(master_seed ^ mix64(domain ^ 0x6d6163ULL)); // "mac"
    return DomainKeys{Aes::fromSeed(enc_seed), Aes::fromSeed(mac_seed)};
}

std::array<Block128, 4>
OtpEngine::encryptionOtps(std::uint64_t address, std::uint64_t counter) const
{
    std::array<Block128, 4> pads;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        pads[w] = encryptionOtp(address, w, counter);
    return pads;
}

BaselineOtpEngine::BaselineOtpEngine(const Aes &enc_key, const Aes &mac_key)
    : enc_key_(enc_key), mac_key_(mac_key)
{
}

Block128
BaselineOtpEngine::encryptionOtp(std::uint64_t address, unsigned word,
                                 std::uint64_t counter) const
{
    return enc_key_.encrypt(baselineInput(kMuEncrypt, address, word, counter));
}

Block128
BaselineOtpEngine::macOtp(std::uint64_t address, std::uint64_t counter) const
{
    return mac_key_.encrypt(baselineInput(kMuMac, address, 0, counter));
}

RmccOtpEngine::RmccOtpEngine(const Aes &enc_key, const Aes &mac_key)
    : enc_key_(enc_key), mac_key_(mac_key)
{
}

Block128
RmccOtpEngine::counterOnlyEnc(std::uint64_t counter) const
{
    // 72-bit zero prefix || 56-bit counter (paper Fig 11).
    return enc_key_.encrypt(makeBlock(0, counter & kCounterMask));
}

Block128
RmccOtpEngine::counterOnlyMac(std::uint64_t counter) const
{
    return mac_key_.encrypt(makeBlock(0, counter & kCounterMask));
}

Block128
RmccOtpEngine::addressOnlyEnc(std::uint64_t address, unsigned word) const
{
    // mu || address || word in the high half, 64 zero bits appended.
    const std::uint64_t hi =
        (kMuEncrypt << 56) | ((address & kAddrMask) << 8) | (word & 0xff);
    return enc_key_.encrypt(makeBlock(hi, 0));
}

Block128
RmccOtpEngine::addressOnlyMac(std::uint64_t address) const
{
    const std::uint64_t hi = (kMuMac << 56) | ((address & kAddrMask) << 8);
    return mac_key_.encrypt(makeBlock(hi, 0));
}

Block128
RmccOtpEngine::combine(const Block128 &counter_only,
                       const Block128 &address_only)
{
    return truncmulMiddle(counter_only, address_only);
}

Block128
RmccOtpEngine::encryptionOtp(std::uint64_t address, unsigned word,
                             std::uint64_t counter) const
{
    return combine(counterOnlyEnc(counter), addressOnlyEnc(address, word));
}

Block128
RmccOtpEngine::macOtp(std::uint64_t address, std::uint64_t counter) const
{
    return combine(counterOnlyMac(counter), addressOnlyMac(address));
}

std::array<Block128, 4>
RmccOtpEngine::encryptionOtps(std::uint64_t address,
                              std::uint64_t counter) const
{
    const Block128 ctr_only = counterOnlyEnc(counter);
    std::array<Block128, 4> pads;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        pads[w] = combine(ctr_only, addressOnlyEnc(address, w));
    return pads;
}

DataBlock
BlockCodec::encode(const DataBlock &block, std::uint64_t address,
                   std::uint64_t counter) const
{
    const std::array<Block128, 4> pads =
        engine_.encryptionOtps(address, counter);
    DataBlock out;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        out[w] = block[w] ^ pads[w];
    return out;
}

} // namespace rmcc::crypto

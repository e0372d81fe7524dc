#include "crypto/mac.hpp"

namespace rmcc::crypto
{

MacEngine::MacEngine(std::uint64_t key_seed)
{
    // Derive word keys by encrypting distinct constants under a key-seeded
    // schedule; any PRF would do, this keeps derivation self-contained.
    const Aes kdf = Aes::fromSeed(key_seed ^ 0xc2b2ae3d27d4eb4fULL);
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        keys_[w] = kdf.encrypt(makeBlock(0x6d61636b6579ULL, w));
}

MacEngine::MacEngine(const std::array<Block128, kWordsPerBlock> &keys)
    : keys_(keys)
{
}

Block128
MacEngine::dotProduct(const DataBlock &block) const
{
    Block128 acc{};
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        acc = acc ^ gf128Mul(block[w], keys_[w]);
    return acc;
}

std::uint64_t
MacEngine::mac(const DataBlock &block, const Block128 &otp) const
{
    const Block128 mixed = dotProduct(block) ^ otp;
    const auto [hi, lo] = splitBlock(mixed);
    // Truncate: keep the low 56 bits of the XOR of both halves so every
    // product bit influences the MAC.
    return (hi ^ lo) & kMacMask;
}

} // namespace rmcc::crypto

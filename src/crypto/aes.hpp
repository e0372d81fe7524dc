/**
 * @file
 * FIPS-197 AES block cipher (AES-128 and AES-256), implemented from scratch.
 *
 * The secure-memory model in this repository uses AES exactly as SGX's
 * memory encryption engine does: as a pseudo-random function producing
 * one-time pads (OTPs) from a block's counter and address.  The simulators
 * charge the configured AES latency instead of running the cipher per
 * access; this implementation backs the functional crypto paths (examples,
 * MAC/OTP algebra tests, and the Sec IV-D randomness analysis).
 *
 * Only encryption is provided: counter-mode confidentiality and MAC
 * generation never run the inverse cipher.
 */
#ifndef RMCC_CRYPTO_AES_HPP
#define RMCC_CRYPTO_AES_HPP

#include <array>
#include <cstdint>
#include <cstddef>

namespace rmcc::crypto
{

/** A 128-bit block, byte 0 first (FIPS-197 byte order). */
using Block128 = std::array<std::uint8_t, 16>;

/** XOR two 128-bit blocks. */
Block128 operator^(const Block128 &a, const Block128 &b);

/** Pack (hi, lo) 64-bit words into a big-endian block: hi first. */
Block128 makeBlock(std::uint64_t hi, std::uint64_t lo);

/** Extract the big-endian (hi, lo) pair from a block. */
std::pair<std::uint64_t, std::uint64_t> splitBlock(const Block128 &b);

/**
 * AES cipher context with a pre-expanded key schedule.
 *
 * AES-128 runs 10 rounds; AES-256 runs 14 (the quantum-safe variant the
 * paper evaluates at 22 ns).
 */
class Aes
{
  public:
    /** Supported key sizes. */
    enum class KeySize { k128, k256 };

    /** Expand a 16-byte key (AES-128). */
    static Aes fromKey128(const std::array<std::uint8_t, 16> &key);

    /** Expand a 32-byte key (AES-256). */
    static Aes fromKey256(const std::array<std::uint8_t, 32> &key);

    /** Convenience: derive a key schedule from a 64-bit seed (non-NIST). */
    static Aes fromSeed(std::uint64_t seed, KeySize size = KeySize::k128);

    /**
     * Encrypt one 128-bit block (fast path).
     *
     * Rounds run in 32-bit T-table form: SubBytes, ShiftRows, and
     * MixColumns collapse into four 256-entry word tables, generated
     * once at startup from the FIPS-197 S-box.  Produces bit-identical
     * output to encryptReference().
     */
    Block128 encrypt(const Block128 &plaintext) const;

    /**
     * Encrypt one block with the byte-wise FIPS-197 reference rounds
     * (the original implementation).  Kept as the oracle the T-table
     * path and its startup-generated tables are verified against.
     */
    Block128 encryptReference(const Block128 &plaintext) const;

    /** Number of rounds (10 for AES-128, 14 for AES-256). */
    int rounds() const { return rounds_; }

    /**
     * Round keys serialized to FIPS-197 byte order, 16 bytes per round
     * key, 16 * (rounds + 1) bytes total — the layout AESENC consumes.
     */
    const std::uint8_t *roundKeyBytes() const
    {
        return round_key_bytes_.data();
    }

  private:
    Aes() = default;

    void expandKey(const std::uint8_t *key, std::size_t key_words);

    /** The T-table rounds with no dispatch or op counting (the software
     *  body encrypt() routes to). */
    Block128 encryptSw(const Block128 &plaintext) const;

    /** Round keys as 4-byte words; 4 * (rounds + 1) words. */
    std::array<std::uint32_t, 60> round_keys_{};
    /** The same schedule as bytes (see roundKeyBytes()). */
    std::array<std::uint8_t, 240> round_key_bytes_{};
    int rounds_ = 0;
};

} // namespace rmcc::crypto

#endif // RMCC_CRYPTO_AES_HPP

/**
 * @file
 * One-time-pad (OTP) construction for counter-mode secure memory.
 *
 * Two constructions are provided:
 *
 *  - BaselineOtpEngine: the SGX-style OTP of paper Fig 2.  One AES call
 *    takes the block's counter AND address (plus word index and a domain
 *    byte) simultaneously; the OTP cannot be started until the counter is
 *    known.
 *
 *  - RmccOtpEngine: the split OTP of paper Fig 11.  One AES call depends
 *    only on the counter (with a 72-bit zero prefix) and one only on the
 *    address (with a 64-bit zero suffix); a truncated carry-less multiply
 *    combines the two.  The zero padding gives domain separation so that
 *    swapping (address, counter) can never reproduce an OTP (type-A repeat
 *    elimination, Sec IV-D1).
 *
 * Both engines hold two key schedules: OTPs for encryption and for MAC
 * generation use different AES keys, as in SGX.
 */
#ifndef RMCC_CRYPTO_OTP_HPP
#define RMCC_CRYPTO_OTP_HPP

#include <array>
#include <cstdint>

#include "crypto/aes.hpp"
#include "crypto/clmul.hpp"

namespace rmcc::crypto
{

/** A 64-byte memory block as four 128-bit words. */
using DataBlock = std::array<Block128, 4>;

/** Number of 128-bit words per 64 B block. */
constexpr unsigned kWordsPerBlock = 4;

/** Counters are 56-bit values (SGX counter width). */
constexpr std::uint64_t kCounterMask = (1ULL << 56) - 1;

/** Abstract OTP provider: everything decryption/verification needs. */
class OtpEngine
{
  public:
    virtual ~OtpEngine() = default;

    /**
     * OTP used to encrypt/decrypt one 128-bit word.
     *
     * @param address 48-bit block address (byte address of the 64 B block).
     * @param word word index within the block, 0..3.
     * @param counter 56-bit write counter.
     */
    virtual Block128 encryptionOtp(std::uint64_t address, unsigned word,
                                   std::uint64_t counter) const = 0;

    /** OTP used to compute the block's MAC. */
    virtual Block128 macOtp(std::uint64_t address,
                            std::uint64_t counter) const = 0;

    /**
     * All four per-word encryption OTPs of one 64 B block.  The default
     * calls encryptionOtp() per word; engines with shareable per-block
     * state (RMCC's counter-only AES result) override it so that state
     * is computed once per block instead of once per word.
     */
    virtual std::array<Block128, 4>
    encryptionOtps(std::uint64_t address, std::uint64_t counter) const;
};

/** SGX-style single-AES OTP (paper Fig 2). */
class BaselineOtpEngine : public OtpEngine
{
  public:
    /** Create with independent encryption and MAC keys. */
    BaselineOtpEngine(const Aes &enc_key, const Aes &mac_key);

    Block128 encryptionOtp(std::uint64_t address, unsigned word,
                           std::uint64_t counter) const override;
    Block128 macOtp(std::uint64_t address,
                    std::uint64_t counter) const override;

  private:
    Aes enc_key_;
    Aes mac_key_;
};

/** RMCC's split OTP (paper Fig 11). */
class RmccOtpEngine : public OtpEngine
{
  public:
    /** Create with independent encryption and MAC keys. */
    RmccOtpEngine(const Aes &enc_key, const Aes &mac_key);

    /**
     * Counter-only AES result for encryption OTPs; this is the value RMCC
     * memoizes.  Input block = 72 zero bits || 56-bit counter.
     */
    Block128 counterOnlyEnc(std::uint64_t counter) const;

    /** Counter-only AES result for MAC OTPs (different key). */
    Block128 counterOnlyMac(std::uint64_t counter) const;

    /**
     * Address-only AES result for encryption OTPs.  Input block =
     * mu || 48-bit address || word index || 64 zero bits.
     */
    Block128 addressOnlyEnc(std::uint64_t address, unsigned word) const;

    /** Address-only AES result for MAC OTPs. */
    Block128 addressOnlyMac(std::uint64_t address) const;

    /** Combine two partial results: truncated middle of the CLMUL. */
    static Block128 combine(const Block128 &counter_only,
                            const Block128 &address_only);

    Block128 encryptionOtp(std::uint64_t address, unsigned word,
                           std::uint64_t counter) const override;
    Block128 macOtp(std::uint64_t address,
                    std::uint64_t counter) const override;

    /**
     * Per-block fast path: the counter-only AES result is shared by all
     * four words of a block, so compute it once and run only the four
     * address-only AES calls plus combines (5 AES calls per block
     * instead of 8).
     */
    std::array<Block128, 4>
    encryptionOtps(std::uint64_t address,
                   std::uint64_t counter) const override;

  private:
    Aes enc_key_;
    Aes mac_key_;
};

/**
 * One tenant key domain's AES schedules: independent encryption and MAC
 * keys derived from a platform master seed and the domain id.
 */
struct DomainKeys
{
    Aes enc;
    Aes mac;
};

/**
 * Derive a tenant domain's key pair from a platform master seed.
 * SplitMix-style mixing of (seed, domain) feeds Aes::fromSeed, so equal
 * (seed, domain) pairs always derive the same schedules and distinct
 * domains get unrelated keys.  Domain 0 is deliberately distinct from
 * the undomained fromSeed(seed) schedules: a derived domain never
 * aliases the platform keys protecting the counter tree.
 */
DomainKeys deriveDomainKeys(std::uint64_t master_seed,
                            std::uint64_t domain);

/**
 * Encrypt/decrypt whole 64 B blocks with any OTP engine.  XOR with the OTP
 * is an involution, so encode() serves both directions.
 */
class BlockCodec
{
  public:
    /** The codec borrows the engine; it must outlive the codec. */
    explicit BlockCodec(const OtpEngine &engine) : engine_(engine) {}

    /** XOR all four words with their per-word OTPs. */
    DataBlock encode(const DataBlock &block, std::uint64_t address,
                     std::uint64_t counter) const;

  private:
    const OtpEngine &engine_;
};

} // namespace rmcc::crypto

#endif // RMCC_CRYPTO_OTP_HPP

/**
 * @file
 * Carry-less (GF(2)[x]) multiplication and GF(2^128) arithmetic.
 *
 * RMCC combines an address-only AES result with a memoized counter-only AES
 * result via a truncated 128x128 -> 128 carry-less multiplication (paper
 * Fig 11, "keep the 128 bits in the middle").  The Galois-field dot product
 * used by the MAC (paper Fig 2b) reduces products modulo the GCM polynomial
 * x^128 + x^7 + x^2 + x + 1.
 */
#ifndef RMCC_CRYPTO_CLMUL_HPP
#define RMCC_CRYPTO_CLMUL_HPP

#include <array>
#include <cstdint>

#include "crypto/aes.hpp"

namespace rmcc::crypto
{

/** A 256-bit carry-less product, little-endian 64-bit limbs. */
struct U256
{
    std::array<std::uint64_t, 4> limb{};

    bool operator==(const U256 &other) const = default;
};

/**
 * 64x64 -> 128 carry-less multiply; returns {lo, hi}.
 *
 * Fast path: 4-bit windowed multiply (a 16-entry table of the multiples
 * b*u for u in GF(2)[x] degree < 4, consumed in 16 nibble steps) instead
 * of the 64-iteration bit loop.
 */
std::pair<std::uint64_t, std::uint64_t> clmul64(std::uint64_t a,
                                                std::uint64_t b);

/**
 * Bit-at-a-time shift-and-xor reference multiply (the original
 * implementation); the oracle the windowed path is verified against.
 */
std::pair<std::uint64_t, std::uint64_t> clmul64Reference(std::uint64_t a,
                                                         std::uint64_t b);

/**
 * 128x128 -> 256 carry-less multiply of two blocks.
 *
 * Blocks are interpreted as big-endian 128-bit polynomials (bit 0 of the
 * polynomial = least-significant bit of byte 15).
 */
U256 clmul128(const Block128 &a, const Block128 &b);

/**
 * RMCC's truncated multiply: the middle 128 bits (bits 64..191) of the
 * 256-bit carry-less product.  Cutting 64 bits from each end discards 128
 * bits of information, which is what makes the combine non-invertible
 * (Sec IV-D1).
 */
Block128 truncmulMiddle(const Block128 &a, const Block128 &b);

/** GF(2^128) multiply with reduction modulo x^128 + x^7 + x^2 + x + 1. */
Block128 gf128Mul(const Block128 &a, const Block128 &b);

} // namespace rmcc::crypto

#endif // RMCC_CRYPTO_CLMUL_HPP

#include "crypto/clmul.hpp"

#include "crypto/dispatch.hpp"

namespace rmcc::crypto
{

std::pair<std::uint64_t, std::uint64_t>
clmul64Reference(std::uint64_t a, std::uint64_t b)
{
    // Shift-and-xor schoolbook multiply in GF(2)[x]; branch-light form that
    // conditions on each bit of a.
    std::uint64_t lo = 0, hi = 0;
    for (int i = 0; i < 64; ++i) {
        if ((a >> i) & 1) {
            lo ^= b << i;
            if (i)
                hi ^= b >> (64 - i);
        }
    }
    return {lo, hi};
}

std::pair<std::uint64_t, std::uint64_t>
clmul64(std::uint64_t a, std::uint64_t b)
{
    // 4-bit windowed multiply.  T[u] = b * u for every degree-<4
    // polynomial u; each product is at most 67 bits, so it carries up to
    // three bits into the high limb.
    std::uint64_t t_lo[16], t_hi[16];
    t_lo[0] = 0;
    t_hi[0] = 0;
    t_lo[1] = b;
    t_hi[1] = 0;
    for (unsigned u = 2; u < 16; ++u) {
        if (u & 1) {
            t_lo[u] = t_lo[u - 1] ^ b;
            t_hi[u] = t_hi[u - 1];
        } else {
            t_lo[u] = t_lo[u >> 1] << 1;
            t_hi[u] = (t_hi[u >> 1] << 1) | (t_lo[u >> 1] >> 63);
        }
    }

    // Consume a in nibbles, most significant first, shifting the
    // accumulator left by the window width between steps.
    std::uint64_t lo = 0, hi = 0;
    for (int shift = 60; shift >= 0; shift -= 4) {
        hi = (hi << 4) | (lo >> 60);
        lo <<= 4;
        const unsigned u = static_cast<unsigned>(a >> shift) & 0xf;
        lo ^= t_lo[u];
        hi ^= t_hi[u];
    }
    return {lo, hi};
}

namespace
{

/** Big-endian block -> (hi, lo) polynomial limbs. */
std::pair<std::uint64_t, std::uint64_t>
toLimbs(const Block128 &b)
{
    return splitBlock(b);
}

/** The software 128x128 multiply body (no dispatch, no op counting). */
U256
clmul128Sw(const Block128 &a, const Block128 &b)
{
    const auto [a_hi, a_lo] = toLimbs(a);
    const auto [b_hi, b_lo] = toLimbs(b);

    const auto [ll_lo, ll_hi] = clmul64(a_lo, b_lo);
    const auto [hh_lo, hh_hi] = clmul64(a_hi, b_hi);
    const auto [lh_lo, lh_hi] = clmul64(a_lo, b_hi);
    const auto [hl_lo, hl_hi] = clmul64(a_hi, b_lo);

    U256 out;
    out.limb[0] = ll_lo;
    out.limb[1] = ll_hi ^ lh_lo ^ hl_lo;
    out.limb[2] = hh_lo ^ lh_hi ^ hl_hi;
    out.limb[3] = hh_hi;
    return out;
}

} // namespace

U256
clmul128(const Block128 &a, const Block128 &b)
{
    const bool hw = detail::dispatchState().hw_clmul;
    detail::countClmul(hw);
    if (hw)
        return detail::clmul128Hw(a, b);
    return clmul128Sw(a, b);
}

Block128
truncmulMiddle(const Block128 &a, const Block128 &b)
{
    const U256 p = clmul128(a, b);
    // Middle 128 bits: limbs 1 (low half) and 2 (high half).
    return makeBlock(p.limb[2], p.limb[1]);
}

Block128
gf128Mul(const Block128 &a, const Block128 &b)
{
    const U256 p = clmul128(a, b);
    // Reduce the 256-bit product modulo x^128 + x^7 + x^2 + x + 1.
    // Folding a bit at position 128+i adds bits at i+7, i+2, i+1, i.
    std::uint64_t r[4] = {p.limb[0], p.limb[1], p.limb[2], p.limb[3]};
    auto fold_word = [&](int w) {
        // Fold r[w] (holding bits [64w, 64w+64)) down by 128 bits.
        const std::uint64_t x = r[w];
        r[w] = 0;
        const int dst = w - 2;
        auto xor_shifted = [&](int shift) {
            // XOR x << shift into bits starting at 64*dst.
            r[dst] ^= x << shift;
            if (shift)
                r[dst + 1] ^= x >> (64 - shift);
        };
        xor_shifted(0);
        xor_shifted(1);
        xor_shifted(2);
        xor_shifted(7);
    };
    fold_word(3);
    fold_word(2);
    return makeBlock(r[1], r[0]);
}

} // namespace rmcc::crypto

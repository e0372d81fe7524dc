#include "crypto/aes.hpp"

#include <cassert>
#include <utility>

#include "crypto/dispatch.hpp"

namespace rmcc::crypto
{

namespace
{

/** FIPS-197 S-box. */
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

/** Round constants for key expansion. */
constexpr std::uint8_t kRcon[15] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
    0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
};

std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::uint32_t
subWord(std::uint32_t w)
{
    return (static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[w & 0xff]);
}

std::uint32_t
rotWord(std::uint32_t w)
{
    return (w << 8) | (w >> 24);
}

/**
 * Round tables for the T-table fast path.  Te0[x] packs one column's
 * worth of SubBytes+MixColumns for state byte x:
 *
 *   Te0[x] = (2*S[x], S[x], S[x], 3*S[x])   (MSB first, GF(2^8) scale)
 *
 * and Te1..Te3 are byte rotations of Te0 for the other three rows; the
 * row offsets in the lookup indices implement ShiftRows.
 */
struct EncTables
{
    std::uint32_t te0[256];
    std::uint32_t te1[256];
    std::uint32_t te2[256];
    std::uint32_t te3[256];
};

const EncTables &
encTables()
{
    static const EncTables tables = [] {
        EncTables t{};
        for (int i = 0; i < 256; ++i) {
            const std::uint8_t s = kSbox[i];
            const std::uint8_t s2 = xtime(s);
            const std::uint8_t s3 = static_cast<std::uint8_t>(s ^ s2);
            const std::uint32_t w = (static_cast<std::uint32_t>(s2) << 24) |
                                    (static_cast<std::uint32_t>(s) << 16) |
                                    (static_cast<std::uint32_t>(s) << 8) |
                                    static_cast<std::uint32_t>(s3);
            t.te0[i] = w;
            t.te1[i] = (w >> 8) | (w << 24);
            t.te2[i] = (w >> 16) | (w << 16);
            t.te3[i] = (w >> 24) | (w << 8);
        }
        return t;
    }();
    return tables;
}

} // namespace

Block128
operator^(const Block128 &a, const Block128 &b)
{
    Block128 out;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = a[i] ^ b[i];
    return out;
}

Block128
makeBlock(std::uint64_t hi, std::uint64_t lo)
{
    Block128 b;
    for (int i = 0; i < 8; ++i) {
        b[i] = static_cast<std::uint8_t>(hi >> (56 - 8 * i));
        b[8 + i] = static_cast<std::uint8_t>(lo >> (56 - 8 * i));
    }
    return b;
}

std::pair<std::uint64_t, std::uint64_t>
splitBlock(const Block128 &b)
{
    std::uint64_t hi = 0, lo = 0;
    for (int i = 0; i < 8; ++i) {
        hi = (hi << 8) | b[i];
        lo = (lo << 8) | b[8 + i];
    }
    return {hi, lo};
}

Aes
Aes::fromKey128(const std::array<std::uint8_t, 16> &key)
{
    Aes aes;
    aes.rounds_ = 10;
    aes.expandKey(key.data(), 4);
    return aes;
}

Aes
Aes::fromKey256(const std::array<std::uint8_t, 32> &key)
{
    Aes aes;
    aes.rounds_ = 14;
    aes.expandKey(key.data(), 8);
    return aes;
}

Aes
Aes::fromSeed(std::uint64_t seed, KeySize size)
{
    // SplitMix-style expansion of the seed into key bytes; convenience for
    // simulation keys, not a NIST KDF.
    auto mix = [](std::uint64_t &x) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    std::uint64_t x = seed;
    if (size == KeySize::k128) {
        std::array<std::uint8_t, 16> key;
        for (int w = 0; w < 2; ++w) {
            const std::uint64_t v = mix(x);
            for (int i = 0; i < 8; ++i)
                key[8 * w + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        return fromKey128(key);
    }
    std::array<std::uint8_t, 32> key;
    for (int w = 0; w < 4; ++w) {
        const std::uint64_t v = mix(x);
        for (int i = 0; i < 8; ++i)
            key[8 * w + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return fromKey256(key);
}

void
Aes::expandKey(const std::uint8_t *key, std::size_t key_words)
{
    const std::size_t total_words = 4 * (static_cast<std::size_t>(rounds_) + 1);
    for (std::size_t i = 0; i < key_words; ++i) {
        round_keys_[i] =
            (static_cast<std::uint32_t>(key[4 * i]) << 24) |
            (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
            (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
            static_cast<std::uint32_t>(key[4 * i + 3]);
    }
    for (std::size_t i = key_words; i < total_words; ++i) {
        std::uint32_t temp = round_keys_[i - 1];
        if (i % key_words == 0) {
            temp = subWord(rotWord(temp)) ^
                   (static_cast<std::uint32_t>(kRcon[i / key_words - 1])
                    << 24);
        } else if (key_words > 6 && i % key_words == 4) {
            temp = subWord(temp);
        }
        round_keys_[i] = round_keys_[i - key_words] ^ temp;
    }
    for (std::size_t i = 0; i < total_words; ++i) {
        round_key_bytes_[4 * i + 0] =
            static_cast<std::uint8_t>(round_keys_[i] >> 24);
        round_key_bytes_[4 * i + 1] =
            static_cast<std::uint8_t>(round_keys_[i] >> 16);
        round_key_bytes_[4 * i + 2] =
            static_cast<std::uint8_t>(round_keys_[i] >> 8);
        round_key_bytes_[4 * i + 3] =
            static_cast<std::uint8_t>(round_keys_[i]);
    }
}

Block128
Aes::encrypt(const Block128 &plaintext) const
{
    assert(rounds_ == 10 || rounds_ == 14);
    const bool hw = detail::dispatchState().hw_aes;
    detail::countAes(hw);
    if (hw)
        return detail::aesEncryptHw(round_key_bytes_.data(), rounds_,
                                    plaintext);
    return encryptSw(plaintext);
}

Block128
Aes::encryptSw(const Block128 &plaintext) const
{
    const EncTables &T = encTables();

    // One 32-bit word per state column, row 0 in the MSB — the same
    // packing the round keys use.
    auto load = [&](int c) {
        return (static_cast<std::uint32_t>(plaintext[4 * c + 0]) << 24) |
               (static_cast<std::uint32_t>(plaintext[4 * c + 1]) << 16) |
               (static_cast<std::uint32_t>(plaintext[4 * c + 2]) << 8) |
               static_cast<std::uint32_t>(plaintext[4 * c + 3]);
    };
    std::uint32_t s0 = load(0) ^ round_keys_[0];
    std::uint32_t s1 = load(1) ^ round_keys_[1];
    std::uint32_t s2 = load(2) ^ round_keys_[2];
    std::uint32_t s3 = load(3) ^ round_keys_[3];

    for (int round = 1; round < rounds_; ++round) {
        const std::uint32_t *rk =
            &round_keys_[static_cast<std::size_t>(4 * round)];
        const std::uint32_t t0 = T.te0[s0 >> 24] ^
                                 T.te1[(s1 >> 16) & 0xff] ^
                                 T.te2[(s2 >> 8) & 0xff] ^
                                 T.te3[s3 & 0xff] ^ rk[0];
        const std::uint32_t t1 = T.te0[s1 >> 24] ^
                                 T.te1[(s2 >> 16) & 0xff] ^
                                 T.te2[(s3 >> 8) & 0xff] ^
                                 T.te3[s0 & 0xff] ^ rk[1];
        const std::uint32_t t2 = T.te0[s2 >> 24] ^
                                 T.te1[(s3 >> 16) & 0xff] ^
                                 T.te2[(s0 >> 8) & 0xff] ^
                                 T.te3[s1 & 0xff] ^ rk[2];
        const std::uint32_t t3 = T.te0[s3 >> 24] ^
                                 T.te1[(s0 >> 16) & 0xff] ^
                                 T.te2[(s1 >> 8) & 0xff] ^
                                 T.te3[s2 & 0xff] ^ rk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // Final round: SubBytes + ShiftRows only (no MixColumns).
    const std::uint32_t *rk =
        &round_keys_[static_cast<std::size_t>(4 * rounds_)];
    auto last = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    std::uint32_t d, std::uint32_t k) {
        return ((static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
                (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16) |
                (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
                static_cast<std::uint32_t>(kSbox[d & 0xff])) ^
               k;
    };
    const std::uint32_t o0 = last(s0, s1, s2, s3, rk[0]);
    const std::uint32_t o1 = last(s1, s2, s3, s0, rk[1]);
    const std::uint32_t o2 = last(s2, s3, s0, s1, rk[2]);
    const std::uint32_t o3 = last(s3, s0, s1, s2, rk[3]);

    Block128 out;
    const std::uint32_t words[4] = {o0, o1, o2, o3};
    for (int c = 0; c < 4; ++c) {
        out[static_cast<std::size_t>(4 * c + 0)] =
            static_cast<std::uint8_t>(words[c] >> 24);
        out[static_cast<std::size_t>(4 * c + 1)] =
            static_cast<std::uint8_t>(words[c] >> 16);
        out[static_cast<std::size_t>(4 * c + 2)] =
            static_cast<std::uint8_t>(words[c] >> 8);
        out[static_cast<std::size_t>(4 * c + 3)] =
            static_cast<std::uint8_t>(words[c]);
    }
    return out;
}

Block128
Aes::encryptReference(const Block128 &plaintext) const
{
    assert(rounds_ == 10 || rounds_ == 14);
    std::uint8_t s[16];
    // Load state column-major per FIPS-197: s[row + 4*col] = in[4*col+row].
    for (int i = 0; i < 16; ++i)
        s[i] = plaintext[static_cast<std::size_t>(i)];

    auto add_round_key = [&](int round) {
        for (int c = 0; c < 4; ++c) {
            const std::uint32_t w =
                round_keys_[static_cast<std::size_t>(4 * round + c)];
            s[4 * c + 0] ^= static_cast<std::uint8_t>(w >> 24);
            s[4 * c + 1] ^= static_cast<std::uint8_t>(w >> 16);
            s[4 * c + 2] ^= static_cast<std::uint8_t>(w >> 8);
            s[4 * c + 3] ^= static_cast<std::uint8_t>(w);
        }
    };
    auto sub_bytes = [&]() {
        for (auto &b : s)
            b = kSbox[b];
    };
    auto shift_rows = [&]() {
        // Row r rotates left by r; state is stored as 4 columns of 4 bytes.
        std::uint8_t t[16];
        for (int c = 0; c < 4; ++c)
            for (int r = 0; r < 4; ++r)
                t[4 * c + r] = s[4 * ((c + r) % 4) + r];
        for (int i = 0; i < 16; ++i)
            s[i] = t[i];
    };
    auto mix_columns = [&]() {
        for (int c = 0; c < 4; ++c) {
            std::uint8_t *col = &s[4 * c];
            const std::uint8_t a0 = col[0], a1 = col[1];
            const std::uint8_t a2 = col[2], a3 = col[3];
            const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
            col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(a0 ^ a1));
            col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(a1 ^ a2));
            col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(a2 ^ a3));
            col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(a3 ^ a0));
        }
    };

    add_round_key(0);
    for (int round = 1; round < rounds_; ++round) {
        sub_bytes();
        shift_rows();
        mix_columns();
        add_round_key(round);
    }
    sub_bytes();
    shift_rows();
    add_round_key(rounds_);

    Block128 out;
    for (int i = 0; i < 16; ++i)
        out[static_cast<std::size_t>(i)] = s[i];
    return out;
}

} // namespace rmcc::crypto

#include "util/checksum.hpp"

#include <cstring>

namespace rmcc::util
{

namespace
{

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t
rotl(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** Unaligned little-endian loads (the host is little-endian x86-64). */
inline std::uint64_t
load64(const unsigned char *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
}

inline std::uint32_t
load32(const unsigned char *p)
{
    std::uint32_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
}

/** One lane step: a bijection of acc for a fixed word, and vice versa. */
inline std::uint64_t
mixWord(std::uint64_t acc, std::uint64_t word)
{
    return rotl(acc + word * kP2, 31) * kP1;
}

inline std::uint64_t
mergeLane(std::uint64_t h, std::uint64_t lane)
{
    return (h ^ mixWord(0, lane)) * kP1 + kP4;
}

} // namespace

std::uint64_t
checksum64(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + len;
    std::uint64_t h;

    if (len >= 32) {
        // Four independent lanes, one 8-byte word each per 32-byte block.
        std::uint64_t a = seed + kP1 + kP2, b = seed + kP2, c = seed,
                      d = seed - kP1;
        for (const unsigned char *stop = end - 31; p < stop; p += 32) {
            a = mixWord(a, load64(p));
            b = mixWord(b, load64(p + 8));
            c = mixWord(c, load64(p + 16));
            d = mixWord(d, load64(p + 24));
        }
        h = rotl(a, 1) + rotl(b, 7) + rotl(c, 12) + rotl(d, 18);
        h = mergeLane(h, a);
        h = mergeLane(h, b);
        h = mergeLane(h, c);
        h = mergeLane(h, d);
    } else {
        h = seed + kP5;
    }
    h += static_cast<std::uint64_t>(len);

    for (; p + 8 <= end; p += 8)
        h = rotl(h ^ mixWord(0, load64(p)), 27) * kP1 + kP4;
    if (p + 4 <= end) {
        h = rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = rotl(h ^ (*p * kP5), 11) * kP1;

    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

} // namespace rmcc::util

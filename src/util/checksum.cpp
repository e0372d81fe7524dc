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

/**
 * Mix the whole stripes of [p, end) into the four lanes; returns the
 * first byte not consumed.  The lanes live in registers for the loop.
 */
const unsigned char *
mixStripes(std::uint64_t (&lanes)[4], const unsigned char *p,
           const unsigned char *end)
{
    std::uint64_t a = lanes[0], b = lanes[1], c = lanes[2], d = lanes[3];
    for (; end - p >= 32; p += 32) {
        a = mixWord(a, load64(p));
        b = mixWord(b, load64(p + 8));
        c = mixWord(c, load64(p + 16));
        d = mixWord(d, load64(p + 24));
    }
    lanes[0] = a;
    lanes[1] = b;
    lanes[2] = c;
    lanes[3] = d;
    return p;
}

} // namespace

ChecksumStream::ChecksumStream(std::uint64_t seed)
    : seed_(seed), lanes_{seed + kP1 + kP2, seed + kP2, seed, seed - kP1}
{
}

void
ChecksumStream::update(const void *data, std::size_t len)
{
    if (len == 0)
        return; // data may be null
    const auto *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + len;
    total_ += len;
    if (tail_len_ + len < kStripe) {
        std::memcpy(tail_ + tail_len_, p, len);
        tail_len_ += len;
        return;
    }
    if (tail_len_ > 0) {
        // Complete the held stripe first, so lanes see bytes in order.
        const std::size_t fill = kStripe - tail_len_;
        std::memcpy(tail_ + tail_len_, p, fill);
        mixStripes(lanes_, tail_, tail_ + kStripe);
        p += fill;
        tail_len_ = 0;
    }
    p = mixStripes(lanes_, p, end);
    tail_len_ = static_cast<std::size_t>(end - p);
    std::memcpy(tail_, p, tail_len_);
}

std::uint64_t
ChecksumStream::digest() const
{
    std::uint64_t h;
    if (total_ >= kStripe) {
        const auto [a, b, c, d] = lanes_;
        h = rotl(a, 1) + rotl(b, 7) + rotl(c, 12) + rotl(d, 18);
        h = mergeLane(h, a);
        h = mergeLane(h, b);
        h = mergeLane(h, c);
        h = mergeLane(h, d);
    } else {
        h = seed_ + kP5;
    }
    h += total_;

    // The last len % 32 bytes: whole 8-byte words, one 4-byte word, and
    // single bytes.
    const unsigned char *p = tail_;
    const unsigned char *const end = tail_ + tail_len_;
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

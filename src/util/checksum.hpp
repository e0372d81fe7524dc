/**
 * @file
 * The one checksum every on-disk cache and every content hash shares:
 * the shared-graph cache payload, the trace file's chunk, index and
 * header checksums and its workload fingerprint, and the obs cell-name
 * suffix.
 *
 * It is XXH64 (xxHash's 64-bit hash): the input is read as 8-byte
 * little-endian words spread over four independent multiply-rotate
 * lanes, so a long buffer is hashed at memory bandwidth instead of at one
 * dependent multiply per byte.  The lanes are merged, then the length,
 * the last whole 8-byte words, one 4-byte word and the last bytes are
 * mixed in.  Every step is a bijection of the value it mixes, so for a
 * fixed length a change confined to any one of the words it reads (an
 * 8-byte word, the 4-byte word or one tail byte) always changes the
 * result.
 *
 * ChecksumStream is the one implementation: it takes the bytes in pieces
 * of any size, so a reader can checksum a file chunk by chunk while each
 * chunk is still in cache, and checksum64() is one update() of it.
 */
#ifndef RMCC_UTIL_CHECKSUM_HPP
#define RMCC_UTIL_CHECKSUM_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rmcc::util
{

/**
 * checksum64() of a byte stream fed in pieces: any split of the same
 * bytes gives the same digest() as one checksum64() call over them.
 */
class ChecksumStream
{
  public:
    explicit ChecksumStream(std::uint64_t seed = 0);

    /** Append len bytes at data (any alignment) to the stream. */
    void update(const void *data, std::size_t len);

    /** Checksum of every byte so far; the stream can keep growing. */
    std::uint64_t digest() const;

  private:
    //! Bytes per stripe: one 8-byte word for each of the four lanes.
    static constexpr std::size_t kStripe = 32;

    std::uint64_t seed_;
    std::uint64_t lanes_[4];
    std::uint64_t total_ = 0;            //!< Bytes fed so far.
    unsigned char tail_[kStripe] = {};   //!< Bytes short of a stripe.
    std::size_t tail_len_ = 0;
};

/** 64-bit checksum of len bytes at data (any alignment). */
inline std::uint64_t
checksum64(const void *data, std::size_t len, std::uint64_t seed = 0)
{
    ChecksumStream s(seed);
    s.update(data, len);
    return s.digest();
}

/** checksum64() over a string's bytes. */
inline std::uint64_t
checksum64(std::string_view s)
{
    return checksum64(s.data(), s.size());
}

} // namespace rmcc::util

#endif // RMCC_UTIL_CHECKSUM_HPP

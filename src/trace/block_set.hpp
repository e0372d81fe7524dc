/**
 * @file
 * Streaming distinct-key counting: an open-addressing uint64 hash set.
 *
 * Both TraceBuffer::distinctBlocks() and the trace file's totals pass
 * need "how many distinct blocks does this record stream touch?" over
 * streams that may never fit in RAM at once.  A sort|unique over a
 * materialized copy (the pre-PR-8 implementation) is O(n log n) time and
 * O(n) extra space in the *record count*; this set is O(n) expected time
 * and O(distinct) space, which for memory traces is orders of magnitude
 * smaller than the stream itself.
 */
#ifndef RMCC_TRACE_BLOCK_SET_HPP
#define RMCC_TRACE_BLOCK_SET_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmcc::trace
{

/**
 * Open-addressing hash set of uint64 keys with linear probing.
 *
 * Any key value is accepted (the empty-slot sentinel is handled out of
 * band), capacity grows at ~0.7 load, and insert() reports whether the
 * key was new.
 */
class BlockSet
{
  public:
    explicit BlockSet(std::size_t expected = 64)
    {
        std::size_t cap = 16;
        while (cap < expected * 2)
            cap <<= 1;
        slots_.assign(cap, kEmpty);
    }

    /** Insert a key; true when it was not already present. */
    bool insert(std::uint64_t key)
    {
        if (key == kEmpty) {
            if (has_empty_key_)
                return false;
            has_empty_key_ = true;
            ++size_;
            return true;
        }
        if ((size_ + 1) * 10 >= slots_.size() * 7)
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = mix(key) & mask;
        while (slots_[i] != kEmpty) {
            if (slots_[i] == key)
                return false;
            i = (i + 1) & mask;
        }
        slots_[i] = key;
        ++size_;
        return true;
    }

    /** True when the key has been inserted. */
    bool contains(std::uint64_t key) const
    {
        if (key == kEmpty)
            return has_empty_key_;
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = mix(key) & mask;
        while (slots_[i] != kEmpty) {
            if (slots_[i] == key)
                return true;
            i = (i + 1) & mask;
        }
        return false;
    }

    /** Number of distinct keys inserted. */
    std::uint64_t size() const { return size_; }

    void clear()
    {
        std::fill(slots_.begin(), slots_.end(), kEmpty);
        has_empty_key_ = false;
        size_ = 0;
    }

  private:
    static constexpr std::uint64_t kEmpty = ~0ULL;

    /** splitmix64 finalizer: block ids are low-entropy in the low bits. */
    static std::uint64_t mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    void grow()
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(old.size() * 2, kEmpty);
        const std::size_t mask = slots_.size() - 1;
        for (const std::uint64_t key : old) {
            if (key == kEmpty)
                continue;
            std::size_t i = mix(key) & mask;
            while (slots_[i] != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = key;
        }
    }

    std::vector<std::uint64_t> slots_;
    bool has_empty_key_ = false;
    std::uint64_t size_ = 0;
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_BLOCK_SET_HPP

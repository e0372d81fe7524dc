/**
 * @file
 * Generic set-associative writeback cache model.
 *
 * Used for the CPU cache hierarchy (L1D/L2/LLC), the memory controller's
 * counter cache (which holds L0 counter blocks and integrity-tree nodes),
 * and — with a different line "address" space — the TLB.
 */
#ifndef RMCC_CACHE_SET_ASSOC_HPP
#define RMCC_CACHE_SET_ASSOC_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "address/types.hpp"

namespace rmcc::cache
{

/** Replacement policy for a set-associative cache. */
enum class ReplPolicy
{
    LRU,  //!< Least-recently-used (default everywhere in the paper).
    FIFO, //!< Insertion order; used in ablation tests.
};

/**
 * The tags a cache's lines may take when they all come from one
 * contiguous address range: [lo, lo + n), in line numbers (addresses
 * over the line size).  n == 0 means no window.
 */
struct TagWindow
{
    addr::Addr lo = 0;
    std::uint64_t n = 0;
};

/** Outcome of a cache access. */
struct AccessResult
{
    bool hit = false;            //!< Line present before the access.
    bool evicted = false;        //!< A valid line was displaced.
    bool writeback = false;      //!< The displaced line was dirty.
    addr::Addr victim_addr = 0;  //!< Base address of the displaced line.
};

/**
 * Set-associative cache with allocate-on-miss and writeback semantics.
 */
class SetAssocCache
{
  public:
    //! Way numbers are stored in bytes, with 0xff meaning "none".
    static constexpr unsigned kMaxAssoc = 255;

    /**
     * @param name stat label.
     * @param size_bytes total capacity; must be divisible by
     *        assoc * line_bytes.
     * @param assoc ways per set, at most kMaxAssoc.
     * @param line_bytes line size (64 for all caches in the paper).
     * @param policy replacement policy.
     * @param window when non-empty, every tag the cache sees lies in it
     *        (one outside is fatal), and a lookup reads the tag's way
     *        from a one-byte-per-tag index instead of scanning the set.
     */
    SetAssocCache(std::string name, std::uint64_t size_bytes, unsigned assoc,
                  unsigned line_bytes = addr::kBlockSize,
                  ReplPolicy policy = ReplPolicy::LRU,
                  TagWindow window = {});

    /**
     * Access (and allocate on miss) the line containing address a.
     * Writes mark the line dirty.
     */
    AccessResult access(addr::Addr a, bool is_write);

    /** Insert without an access (e.g. prefetch fill); returns eviction. */
    AccessResult fill(addr::Addr a, bool dirty);

    /** True if the line is present; does not update recency. */
    bool probe(addr::Addr a) const;

    /**
     * Way holding the line, or -1 when absent.  Pure, like probe(); lets
     * tests pin the victim choice (lowest invalid way, then LRU).
     */
    int wayOf(addr::Addr a) const { return findWay(setIndex(a), tagOf(a)); }

    /**
     * Hint that the set holding address a is about to be scanned: issues
     * software prefetches for its fingerprint and recency rows.  Pure —
     * no state, stat, or replacement decision changes — so callers may
     * prefetch speculatively (e.g. the replay loop's next record)
     * without perturbing results.
     */
    void prefetchSet(addr::Addr a) const
    {
        const std::uint64_t set = setIndex(a);
        const std::size_t base = set * stride_;
        // A row may straddle two cache lines; its ends cover both.
        __builtin_prefetch(&fp_[base]);
        __builtin_prefetch(&fp_[base + assoc_ - 1]);
        __builtin_prefetch(&links_[base]);
        __builtin_prefetch(&sets_[set]);
    }

    /**
     * One-byte fingerprint of a tag: the top byte of a multiplicative
     * hash, so it depends on every tag bit, never 0 (0 marks a way that
     * holds no line).  Public so tests can build tags that share one.
     */
    static std::uint8_t fingerprint(addr::Addr tag)
    {
        const auto h =
            static_cast<std::uint8_t>((tag * 0x9e3779b97f4a7c15ULL) >> 56);
        return h != 0 ? h : 1;
    }

    /**
     * Number of valid lines whose base address lies in [lo, hi).  A full
     * tag sweep, not a per-access operation: occupancy probes (per-tenant
     * counter-cache residency) call it at reporting points only.  Pure —
     * no recency, stat, or state change.
     */
    std::uint64_t countValidIn(addr::Addr lo, addr::Addr hi) const;

    /** Drop the line if present; returns true if it was dirty. */
    bool invalidate(addr::Addr a);

    /** Mark the line dirty if present (e.g. in-place metadata update). */
    void touchDirty(addr::Addr a);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t accesses() const { return hits_ + misses_; }

    std::uint64_t sizeBytes() const { return sets_count_ * assoc_ * line_; }
    unsigned associativity() const { return assoc_; }
    std::uint64_t sets() const { return sets_count_; }
    const std::string &name() const { return name_; }

    /** Reset statistics (state is kept); used after warm-up. */
    void resetStats();

  private:
    std::uint64_t setIndex(addr::Addr a) const
    {
        const addr::Addr tag = tagOf(a);
        return sets_pow2_ ? (tag & set_mask_) : (tag % sets_count_);
    }
    addr::Addr tagOf(addr::Addr a) const
    {
        return line_pow2_ ? (a >> line_shift_) : (a / line_);
    }

    /**
     * Find the way holding tag, or -1.  A windowed cache reads it from
     * way_of_; otherwise the MRU hint first, then eight fingerprints per
     * 64-bit word with the full tag compared only where one matches.
     */
    int findWay(std::uint64_t set, addr::Addr tag) const;

    /** A tag outside the window: fatal. */
    [[noreturn]] void outsideWindow(addr::Addr tag) const;

    /** Pick a victim way in the set according to the policy. */
    unsigned victimWay(std::uint64_t set) const;

    /** Place tag in the set (which must not hold it) as its newest line. */
    AccessResult replaceIn(std::uint64_t set, addr::Addr tag, bool dirty);

    /** Unlink a valid way from its set's recency list. */
    void unlink(std::uint64_t set, unsigned way);

    /** Link a way at the most-recent end of its set's recency list. */
    void pushNewest(std::uint64_t set, unsigned way);

    /** An LRU hit: make the way its set's most recent line. */
    void touch(std::uint64_t set, unsigned way)
    {
        if (sets_[set].newest != way) {
            unlink(set, way);
            pushNewest(set, way);
        }
    }

    std::string name_;
    std::uint64_t sets_count_;
    unsigned assoc_;
    //! Ways per row of the per-line arrays: assoc_ rounded up to a
    //! multiple of 8, so the fingerprint scan always reads whole words.
    //! Padding ways hold no line (kInvalidTag, fingerprint 0) and sit
    //! after every real way, so they never match a tag and the lowest
    //! invalid way of a set that is not full is always a real one.
    unsigned stride_;
    unsigned line_;
    ReplPolicy policy_;
    //! Power-of-two fast paths for the per-access index/tag math; the
    //! general divide/modulo remains for odd geometries used in tests.
    bool line_pow2_ = false, sets_pow2_ = false;
    unsigned line_shift_ = 0;
    std::uint64_t set_mask_ = 0;
    //! Tag stored in ways that hold no line.  Real tags are addresses
    //! divided by the line size, so ~0 is unreachable; encoding validity
    //! in the tag itself makes findWay a pure tag compare.
    static constexpr addr::Addr kInvalidTag = ~addr::Addr{0};
    static constexpr std::uint8_t kNoWay = 0xff;

    //! A valid line's neighbours in its set's recency list.
    struct Link
    {
        std::uint8_t older = kNoWay, newer = kNoWay;
    };
    //! Per-set state, one 4-byte load.
    struct SetState
    {
        //! Most-recently-touched way, probed before the linear scan.  A
        //! stale hint only costs one extra compare; search results are
        //! unchanged.
        std::uint8_t mru = 0;
        //! Ends of the recency list of the set's valid lines: under LRU
        //! oldest is the least recently used line, under FIFO the
        //! earliest filled one, so a full set's victim is O(1).
        std::uint8_t oldest = kNoWay, newest = kNoWay;
        //! Valid lines; once a set is full the victim is oldest.
        std::uint8_t filled = 0;
    };

    //! Line state in structure-of-arrays form so the tag scan — the
    //! hottest loop in the whole simulator — touches one dense array
    //! instead of striding through 24-byte structs.  fp_ holds each
    //! line's fingerprint(tag), 0 exactly where tags_ holds kInvalidTag,
    //! so a 32-way set's lookup reads one 32-byte row, not four tag
    //! lines, and its lowest invalid way is the row's first zero byte.
    std::vector<addr::Addr> tags_;
    std::vector<std::uint8_t> fp_;
    std::vector<Link> links_;
    std::vector<std::uint8_t> dirty_;
    std::vector<SetState> sets_;
    //! Windowed caches only: way_of_[tag - window_lo_] is the way
    //! holding tag, or kNoWay.  Empty without a window.
    addr::Addr window_lo_ = 0;
    std::vector<std::uint8_t> way_of_;
    std::uint64_t hits_ = 0, misses_ = 0, writebacks_ = 0;
};

} // namespace rmcc::cache

#endif // RMCC_CACHE_SET_ASSOC_HPP

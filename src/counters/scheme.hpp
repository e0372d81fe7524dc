/**
 * @file
 * Abstract write-counter scheme: the contract shared by SGX monolithic
 * counters, SC-64 split counters, and Morphable Counters.
 *
 * A scheme manages the counters of N *entities* (data blocks when used at
 * integrity-tree level 0; counter blocks when used at higher levels),
 * groups them into 64 B counter blocks with a scheme-specific coverage,
 * and reports overflows — writes whose new value cannot be encoded in the
 * block's layout and that therefore force re-encrypting every covered
 * entity (paper Sec II-D).
 */
#ifndef RMCC_COUNTERS_SCHEME_HPP
#define RMCC_COUNTERS_SCHEME_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "address/types.hpp"
#include "util/rng.hpp"

namespace rmcc::ctr
{

/** Outcome of setting one counter. */
struct WriteResult
{
    //! The value the entity's counter ended up with (>= requested).
    addr::CounterValue new_value = 0;
    //! True if the write forced a full-block rebase (overflow).
    bool overflow = false;
    //! Covered entities that must be re-encrypted due to the rebase.
    std::uint64_t reencrypt_blocks = 0;
};

/** Half-open counter-value interval [first, second). */
using ValueRange = std::pair<addr::CounterValue, addr::CounterValue>;

/** Does v lie in one of `ranges` (sorted, pairwise disjoint)? */
inline bool
inRanges(addr::CounterValue v, std::span<const ValueRange> ranges)
{
    for (const auto &[lo, hi] : ranges) {
        if (v < lo)
            return false;
        if (v < hi)
            return true;
    }
    return false;
}

/** Per-entity storage of a scheme, for prefetching (entityStorage()). */
struct EntityStorage
{
    const void *base = nullptr; //!< First entity's bytes.
    std::size_t width = 0;      //!< Bytes per entity.

    /** Prefetch entity idx's bytes. */
    void prefetch(std::uint64_t idx) const
    {
        __builtin_prefetch(static_cast<const char *>(base) + idx * width);
    }
};

/** Available scheme implementations. */
enum class SchemeKind
{
    SgxMonolithic, //!< 8 x 56-bit counters per block (SGX).
    SC64,          //!< 64-bit major + 64 x 7-bit minors (ISCA'06).
    Morphable,     //!< 128-entity coverage, morphing formats (MICRO'18).
};

/**
 * Base class for counter schemes.
 */
class CounterScheme
{
  public:
    virtual ~CounterScheme() = default;

    /** Scheme display name. */
    virtual std::string name() const = 0;

    /** Entities covered by one 64 B counter block. */
    virtual unsigned coverage() const = 0;

    /** Extra latency to extract a counter from a fetched block, ns. */
    virtual double decodeLatencyNs() const = 0;

    /** Current logical counter of an entity. */
    virtual addr::CounterValue read(std::uint64_t idx) const = 0;

    /**
     * Set the counter of idx to new_value.
     *
     * @pre new_value > read(idx): counters only increase (counter-mode
     *      security requires never reusing a value for the same entity).
     */
    virtual WriteResult write(std::uint64_t idx,
                              addr::CounterValue new_value) = 0;

    /** Would new_value encode into idx's block without a rebase? */
    virtual bool encodable(std::uint64_t idx,
                           addr::CounterValue new_value) const = 0;

    /**
     * Relevel every counter in idx's block to `target` (which must exceed
     * blockMax(idx)), as a deliberate whole-block update: all covered
     * entities must be re-encrypted.  Used by RMCC's read-triggered
     * memoization-aware update (Sec IV-C1/C2).
     */
    virtual WriteResult relevelBlock(std::uint64_t idx,
                                     addr::CounterValue target) = 0;

    /**
     * Encodable without degrading the block's encoding headroom: a value
     * the update policy may jump to for free.  Split schemes with
     * morphing formats override this to the dense uniform range; far
     * jumps outside it must relevel the whole block instead (otherwise
     * they burn exception/bitmap capacity and push later baseline writes
     * into overflow).
     */
    virtual bool
    cheaplyEncodable(std::uint64_t idx, addr::CounterValue v) const
    {
        return encodable(idx, v);
    }

    /** Number of entities. */
    virtual std::uint64_t entities() const = 0;

    /**
     * Where the scheme keeps entity idx's own state (its counter value, or
     * its offset from the block major): `width` bytes per entity,
     * contiguous from `base`.  Hot-path prefetch sites
     * (SecureMc::prefetchRead and the RMCC warm-up) touch it a step
     * before read() needs it; it is not a value array.
     */
    virtual EntityStorage entityStorage() const = 0;

    /** Largest counter value ever stored (feeds Observed-System-Max). */
    addr::CounterValue observedMax() const { return totals_.observed_max; }

    /**
     * Randomize counter state, emulating the paper's write-intensive
     * initialization benchmark (Sec V, Lifetime Characterization): block
     * majors land uniformly in [mean/2, 3*mean/2), minors take small
     * in-range offsets, as repeated releveling leaves them.
     *
     * Blocks are drawn in order, one initBlock() each, from one rng
     * stream.  The rng state at the start of every kChunkBlocks-block
     * chunk is kept, so restoreInit() can redraw any chunk alone.
     */
    void randomInit(util::Rng &rng, addr::CounterValue mean);

    /**
     * Return to the state right after the last randomInit() (all zeros
     * if it never ran): every chunk a write() or relevelBlock() touched
     * since is redrawn from its rng checkpoint, and observedMax(),
     * overflows() and the morph count go back to their post-init values.
     * Costs the dirty chunks only.
     */
    void restoreInit();

    /** Counter blocks per init/restore chunk. */
    static constexpr std::uint64_t kChunkBlocks = 64;

    /** Chunks written since the last randomInit()/restoreInit(). */
    std::uint64_t dirtyChunks() const
    {
        return static_cast<std::uint64_t>(
            std::count(dirty_.begin(), dirty_.end(), std::uint8_t{1}));
    }

    /** Counter block holding entity idx's counter. */
    addr::CounterBlockId blockOf(std::uint64_t idx) const
    {
        return idx / coverage();
    }

    /**
     * Largest counter value in idx's block; an overflow relevels the whole
     * block to (at least) this value, so the update policy aims rebase
     * targets at the nearest memoized value above it.  Virtual so schemes
     * with direct storage can skip the per-entity virtual read() calls.
     */
    virtual addr::CounterValue
    blockMax(std::uint64_t idx) const
    {
        const auto [first, last] = blockRange(blockOf(idx));
        addr::CounterValue m = 0;
        for (std::uint64_t i = first; i < last; ++i)
            m = std::max(m, read(i));
        return m;
    }

    /**
     * Logical values of every counter in block cb, in entity order (the
     * last block of a level may cover fewer than coverage() entities).
     * This is the content the fault layer serializes and MACs: the
     * authenticated payload of the stored counter block.
     */
    std::vector<addr::CounterValue>
    blockValues(addr::CounterBlockId cb) const
    {
        const auto [first, last] = blockRange(cb);
        std::vector<addr::CounterValue> vals;
        vals.reserve(last - first);
        for (std::uint64_t i = first; i < last; ++i)
            vals.push_back(read(i));
        return vals;
    }

    /**
     * Number of entities whose counter value lies in one of `ranges`,
     * which must be sorted and pairwise disjoint.  The default reads
     * every counter; schemes that track per-block value bounds override
     * it to count whole blocks without reading them.
     */
    virtual std::uint64_t
    countInRanges(std::span<const ValueRange> ranges) const
    {
        const std::uint64_t n = entities();
        std::uint64_t count = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            count += inRanges(read(i), ranges);
        return count;
    }

    /** Total overflow events so far. */
    std::uint64_t overflows() const { return totals_.overflows; }

  protected:
    /** A scheme of `blocks` counter blocks, every counter zero. */
    explicit CounterScheme(std::uint64_t blocks);

    /**
     * Draw block cb's initial state from rng, overwriting whatever the
     * block holds.  randomInit() and restoreInit() call it block by block
     * in order, so one chunk's draws depend only on its checkpoint.
     */
    virtual void initBlock(addr::CounterBlockId cb, util::Rng &rng,
                           addr::CounterValue mean) = 0;

    /** Zero block cb (the constructor's state). */
    virtual void clearBlock(addr::CounterBlockId cb) = 0;

    /** First/last+1 entity of block cb (the last block may be partial). */
    std::pair<std::uint64_t, std::uint64_t>
    blockRange(addr::CounterBlockId cb) const
    {
        const std::uint64_t first = cb * coverage();
        return {first,
                std::min<std::uint64_t>(first + coverage(), entities())};
    }

    /** Record that block cb changed; every mutator calls it. */
    void markDirty(addr::CounterBlockId cb) { dirty_[cb / kChunkBlocks] = 1; }

    /** Fold a stored value into the observed maximum. */
    void noteValue(addr::CounterValue v)
    {
        totals_.observed_max = std::max(totals_.observed_max, v);
    }

    /** Whole-scheme event counts that restoreInit() rewinds. */
    struct Totals
    {
        addr::CounterValue observed_max = 0;
        std::uint64_t overflows = 0;
        std::uint64_t morphs = 0; //!< Format morphs (morphing schemes).
    };
    Totals totals_;

  private:
    std::vector<std::uint8_t> dirty_; //!< Per chunk: 1 once mutated.
    //! Per chunk: the rng state its first block was drawn from; empty
    //! until randomInit() runs.
    std::vector<util::Rng> chunk_rng_;
    addr::CounterValue init_mean_ = 0;
    Totals init_totals_; //!< totals_ right after randomInit().
};

/** Create a scheme of the given kind for n entities. */
std::unique_ptr<CounterScheme> makeScheme(SchemeKind kind, std::uint64_t n);

/** Human-readable scheme-kind name. */
std::string schemeKindName(SchemeKind kind);

/** L0 counter-block coverage of a scheme kind (8 / 64 / 128). */
unsigned schemeCoverage(SchemeKind kind);

/**
 * Widest L0 coverage across all schemes (Morphable's 128 blocks = 8 KB).
 * Tenant arena sizing aligns to this so no counter block of any scheme
 * can span two tenants' physical frames.
 */
inline constexpr unsigned kMaxSchemeCoverage = 128;

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_SCHEME_HPP

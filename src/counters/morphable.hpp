/**
 * @file
 * Morphable Counters (Saileshwar et al., MICRO'18): 128-entity coverage per
 * 64 B counter block with a *morphing* encoding.
 *
 * Layout modeled here (the original's exact bit layout is not public; see
 * DESIGN.md item 5.2): a 56-bit shared major, an 8-bit format tag, and a
 * 448-bit payload that morphs between five formats:
 *
 *   Uniform3  - 128 x 3-bit minors (384 b)          offsets < 8
 *   Uniform3X - 128 x 3-bit minors + 3 exception
 *               slots (7-bit index + 13-bit minor)  < 8 except 3 < 8 Ki
 *   Bitmap6   - 128 b bitmap + 51 x 6-bit minors    <= 51 non-zero, < 64
 *   Bitmap7   - 128 b bitmap + 42 x 7-bit minors    <= 42 non-zero, < 128
 *   Bitmap8   - 128 b bitmap + 36 x 8-bit minors    <= 36 non-zero, < 256
 *   Index16   - 16 x (7-bit index + 16-bit minor)   <= 16 non-zero, < 64 Ki
 *
 * (The 51/42/36 non-zero-minor counts are the variable non-power-of-2
 * decode widths the paper charges 3 ns for.)  A write first tries to morph
 * to any fitting format; if none fits, the block rebases: every encoded
 * value is raised to the block maximum and all 128 covered entities are
 * re-encrypted.
 *
 * Storage is the layout's own split: a 64-bit major per block and one
 * 16-bit offset per entity, read(i) = major + offset.  That is exact
 * because every format formatFromSummary accepts keeps offsets below
 * 2^16 (Index16's 16-bit minors are the widest), a rebase or relevel
 * zeroes them, and the min-shift re-encode rewrites the block's offsets
 * against its new major.
 */
#ifndef RMCC_COUNTERS_MORPHABLE_HPP
#define RMCC_COUNTERS_MORPHABLE_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "counters/scheme.hpp"
#include "util/bitvec.hpp"

namespace rmcc::ctr
{

/** Identifier of a morphable payload format. */
enum class MorphFormat : std::uint8_t
{
    Uniform3 = 0,
    Uniform3X = 1,
    Bitmap6 = 2,
    Bitmap7 = 3,
    Bitmap8 = 4,
    Index16 = 5,
};

/** Static description of one format. */
struct MorphFormatInfo
{
    MorphFormat id;
    unsigned max_nonzero;   //!< Max entities with non-zero minors.
    unsigned minor_bits;    //!< Width of each stored minor.
    bool bitmap;            //!< Payload starts with a 128-bit bitmap.
    unsigned payload_bits;  //!< Total payload size; must be <= 448.
};

/** All formats in preference order (cheapest decode first). */
const std::array<MorphFormatInfo, 6> &morphFormats();

/** Morphable counter scheme. */
class MorphableScheme final : public CounterScheme
{
  public:
    /** Entities per counter block. */
    static constexpr unsigned kCoverage = 128;

    explicit MorphableScheme(std::uint64_t n);

    std::string name() const override { return "Morphable"; }
    unsigned coverage() const override { return kCoverage; }
    double decodeLatencyNs() const override { return 3.0; }

    addr::CounterValue read(std::uint64_t idx) const override;
    WriteResult write(std::uint64_t idx,
                      addr::CounterValue new_value) override;
    bool encodable(std::uint64_t idx,
                   addr::CounterValue new_value) const override;
    WriteResult relevelBlock(std::uint64_t idx,
                             addr::CounterValue target) override;
    bool cheaplyEncodable(std::uint64_t idx,
                          addr::CounterValue v) const override;
    std::uint64_t entities() const override { return off_.size(); }
    EntityStorage entityStorage() const override
    {
        return {off_.data(), sizeof(std::uint16_t)};
    }
    addr::CounterValue blockMax(std::uint64_t idx) const override;
    std::uint64_t
    countInRanges(std::span<const ValueRange> ranges) const override;

    /** Current format of a block (stats/tests). */
    MorphFormat format(addr::CounterBlockId cb) const
    {
        return formats_[cb];
    }

    /** Major counter of a block. */
    addr::CounterValue major(addr::CounterBlockId cb) const
    {
        return majors_[cb];
    }

    /** Number of format-morph events (no traffic cost). */
    std::uint64_t morphs() const { return totals_.morphs; }

    /**
     * Pack a block's current contents into its literal 512-bit layout;
     * proves the encoding really fits in 64 B (used by tests).
     */
    util::BitVec512 packBlock(addr::CounterBlockId cb) const;

    /**
     * Decode a packed block back into (major, offsets); inverse of
     * packBlock for round-trip tests.
     */
    static std::pair<addr::CounterValue, std::vector<std::uint64_t>>
    unpackBlock(const util::BitVec512 &bits);

  private:
    void initBlock(addr::CounterBlockId cb, util::Rng &rng,
                   addr::CounterValue mean) override;
    void clearBlock(addr::CounterBlockId cb) override;

    /**
     * Per-block digest of the offset distribution — exactly the facts the
     * format predicates test.  Lets the common write (major unchanged,
     * offsets only grow) pick its format in O(1) instead of re-scanning
     * all 128 offsets; any path that moves the major recomputes it.
     */
    struct BlockSummary
    {
        std::uint64_t max_off = 0; //!< Largest offset in the block.
        std::uint16_t nonzero = 0; //!< Entities with non-zero offsets.
        std::uint16_t ge8 = 0;     //!< Entities with offsets >= 8.
    };

    /** First fitting format for a summarized offset set; O(1). */
    static std::optional<MorphFormat>
    formatFromSummary(const BlockSummary &s);

    /** Recompute a block's summary from its stored offsets. */
    void refreshSummary(addr::CounterBlockId cb);

    /** Offsets (value - major) of every entity in a block. */
    std::vector<std::uint64_t> blockOffsets(addr::CounterBlockId cb) const;

    /**
     * The block minimum with entity idx set to new_value: the major a
     * min-shift re-encode slides to.
     */
    addr::CounterValue shiftedMajor(addr::CounterBlockId cb,
                                    std::uint64_t idx,
                                    addr::CounterValue new_value) const;

    /**
     * Format that fits after sliding the major to shiftedMajor() with
     * entity idx set to new_value; nullopt if none.
     */
    std::optional<MorphFormat>
    shiftedFormat(addr::CounterBlockId cb, std::uint64_t idx,
                  addr::CounterValue new_value) const;

    std::vector<std::uint16_t> off_; //!< Per entity: value - major.
    std::vector<addr::CounterValue> majors_;
    std::vector<MorphFormat> formats_;
    std::vector<BlockSummary> summaries_;
};

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_MORPHABLE_HPP

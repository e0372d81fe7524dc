#include "counters/morphable.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace rmcc::ctr
{

/** Exception slots in the Uniform3X format. */
constexpr unsigned kUniform3xSlots = 3;

const std::array<MorphFormatInfo, 6> &
morphFormats()
{
    static const std::array<MorphFormatInfo, 6> kFormats = {{
        {MorphFormat::Uniform3, 128, 3, false, 128 * 3},
        {MorphFormat::Uniform3X, 128, 3, false,
         128 * 3 + kUniform3xSlots * (7 + 13)},
        {MorphFormat::Bitmap6, 51, 6, true, 128 + 51 * 6},
        {MorphFormat::Bitmap7, 42, 7, true, 128 + 42 * 7},
        {MorphFormat::Bitmap8, 36, 8, true, 128 + 36 * 8},
        {MorphFormat::Index16, 16, 16, false, 16 * (7 + 16)},
    }};
    static_assert(128 * 3 <= 448 && 128 * 3 + 3 * 20 <= 448 &&
                      128 + 51 * 6 <= 448 && 128 + 42 * 7 <= 448 &&
                      128 + 36 * 8 <= 448 && 16 * 23 <= 448,
                  "all payloads must fit the 448-bit budget");
    return kFormats;
}

namespace
{

const MorphFormatInfo &
infoOf(MorphFormat f)
{
    return morphFormats()[static_cast<std::size_t>(f)];
}

/** Bit offsets of the packed layout. */
constexpr std::size_t kMajorBits = 56;
constexpr std::size_t kFormatBits = 8;
constexpr std::size_t kPayloadBase = kMajorBits + kFormatBits;

// ---------------------------------------------------------------------------
// Block-scan kernels.  Every encodability decision reduces to two scans
// over a block's contiguous 16-bit offsets: a summary (max offset above
// a major, non-zero count, >=8 count — exactly the facts the format
// predicates test) and a min/max.
// ---------------------------------------------------------------------------

/**
 * Accumulate (max_off, nonzero, ge8) over the offsets offs[0..n) hold
 * against another major: offs[i] + shift, where shift = stored major -
 * other major (mod 2^64; exact while no value lies below the other major).
 */
void
summarizeSpan(const std::uint16_t *offs, std::size_t n, std::uint64_t shift,
              std::uint64_t &max_off, unsigned &nonzero, unsigned &ge8)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t off = offs[i] + shift;
        max_off = std::max(max_off, off);
        nonzero += off != 0;
        ge8 += off >= 8;
    }
}

/** Fold the values major + offs[0..n) into the running [lo, hi] envelope. */
void
minmaxSpan(const std::uint16_t *offs, std::size_t n, addr::CounterValue major,
           addr::CounterValue &lo, addr::CounterValue &hi)
{
    if (n == 0)
        return;
    std::uint16_t omin = offs[0], omax = offs[0];
    for (std::size_t i = 1; i < n; ++i) {
        omin = std::min(omin, offs[i]);
        omax = std::max(omax, offs[i]);
    }
    lo = std::min(lo, major + omin);
    hi = std::max(hi, major + omax);
}

} // namespace

std::optional<MorphFormat>
MorphableScheme::formatFromSummary(const BlockSummary &s)
{
    // First format in preference order whose predicates hold.  Each
    // needs only the block's max offset, non-zero count and >=8 count:
    // Uniform3X stores offsets < 2^13 with at most kUniform3xSlots of
    // them >= 8; every other format stores offsets below 2^minor_bits,
    // and all but Uniform3 (which stores every minor) cap the non-zero
    // count at max_nonzero.
    for (const auto &fmt : morphFormats()) {
        if (fmt.id == MorphFormat::Uniform3X) {
            if (s.max_off < (1ULL << 13) && s.ge8 <= kUniform3xSlots)
                return fmt.id;
            continue;
        }
        if (s.max_off >= (1ULL << fmt.minor_bits))
            continue;
        if (fmt.id == MorphFormat::Uniform3 || s.nonzero <= fmt.max_nonzero)
            return fmt.id;
    }
    return std::nullopt;
}

void
MorphableScheme::refreshSummary(addr::CounterBlockId cb)
{
    const auto [first, last] = blockRange(cb);
    std::uint64_t max_off = 0;
    unsigned nonzero = 0, ge8 = 0;
    summarizeSpan(off_.data() + first, last - first, 0, max_off, nonzero,
                  ge8);
    BlockSummary s;
    s.max_off = max_off;
    s.nonzero = static_cast<std::uint16_t>(nonzero);
    s.ge8 = static_cast<std::uint16_t>(ge8);
    summaries_[cb] = s;
}

MorphableScheme::MorphableScheme(std::uint64_t n)
    : CounterScheme((n + kCoverage - 1) / kCoverage), off_(n, 0),
      majors_((n + kCoverage - 1) / kCoverage, 0),
      formats_(majors_.size(), MorphFormat::Uniform3),
      summaries_(majors_.size())
{
}

std::vector<std::uint64_t>
MorphableScheme::blockOffsets(addr::CounterBlockId cb) const
{
    const auto [first, last] = blockRange(cb);
    std::vector<std::uint64_t> offsets(last - first);
    for (std::uint64_t i = first; i < last; ++i)
        offsets[i - first] = off_[i];
    return offsets;
}

addr::CounterValue
MorphableScheme::blockMax(std::uint64_t idx) const
{
    const addr::CounterBlockId cb = blockOf(idx);
    return majors_[cb] + summaries_[cb].max_off;
}

std::uint64_t
MorphableScheme::countInRanges(std::span<const ValueRange> ranges) const
{
    // Every value of block cb lies in [major, major + max_off], so a block
    // inside one range counts in full and a block in a gap between ranges
    // counts nothing; only blocks straddling a range edge are read.
    std::uint64_t count = 0;
    for (addr::CounterBlockId cb = 0; cb < majors_.size(); ++cb) {
        const addr::CounterValue lo = majors_[cb];
        const addr::CounterValue hi = lo + summaries_[cb].max_off;
        // First range ending above lo; every earlier one ends at or below
        // it, so no value of the block can fall there.
        const auto r = std::upper_bound(
            ranges.begin(), ranges.end(), lo,
            [](addr::CounterValue v, const ValueRange &x) {
                return v < x.second;
            });
        if (r == ranges.end() || hi < r->first)
            continue;
        const auto [first, last] = blockRange(cb);
        if (r->first <= lo && hi < r->second) {
            count += last - first;
            continue;
        }
        const std::span<const ValueRange> rest(r, ranges.end());
        for (std::uint64_t i = first; i < last; ++i)
            count += inRanges(lo + off_[i], rest);
    }
    return count;
}

bool
MorphableScheme::encodable(std::uint64_t idx,
                           addr::CounterValue new_value) const
{
    const addr::CounterBlockId cb = blockOf(idx);
    const addr::CounterValue major = majors_[cb];
    if (new_value >= major) {
        const addr::CounterValue cur = major + off_[idx];
        if (new_value >= cur) {
            // A non-decreasing candidate can only grow the summary, so
            // the updated digest is exact and no offset scan is needed.
            BlockSummary s = summaries_[cb];
            const std::uint64_t old_off = cur - major;
            const std::uint64_t new_off = new_value - major;
            s.max_off = std::max(s.max_off, new_off);
            s.nonzero += old_off == 0 && new_off != 0;
            s.ge8 += old_off < 8 && new_off >= 8;
            if (formatFromSummary(s).has_value())
                return true;
        } else {
            // Decreasing candidate: summarize everyone else and merge
            // the changed offset — equivalent to re-deriving the offsets
            // and running the format predicates over them (they only
            // consult the summary facts).
            const auto [first, last] = blockRange(cb);
            const std::uint16_t *offs = off_.data();
            const std::uint64_t new_off = new_value - major;
            std::uint64_t max_off = new_off;
            unsigned nonzero = new_off != 0, ge8 = new_off >= 8;
            summarizeSpan(offs + first, idx - first, 0, max_off, nonzero,
                          ge8);
            summarizeSpan(offs + idx + 1, last - idx - 1, 0, max_off,
                          nonzero, ge8);
            BlockSummary s;
            s.max_off = max_off;
            s.nonzero = static_cast<std::uint16_t>(nonzero);
            s.ge8 = static_cast<std::uint16_t>(ge8);
            if (formatFromSummary(s).has_value())
                return true;
        }
    }
    // Min-shift re-encode: sliding the major up to the block minimum
    // changes no counter value, so it costs no re-encryption.
    return shiftedFormat(cb, idx, new_value).has_value();
}

addr::CounterValue
MorphableScheme::shiftedMajor(addr::CounterBlockId cb, std::uint64_t idx,
                              addr::CounterValue new_value) const
{
    // Fold the two spans around idx.
    const auto [first, last] = blockRange(cb);
    const std::uint16_t *offs = off_.data();
    addr::CounterValue vmin = new_value, hi_unused = new_value;
    minmaxSpan(offs + first, idx - first, majors_[cb], vmin, hi_unused);
    minmaxSpan(offs + idx + 1, last - idx - 1, majors_[cb], vmin,
               hi_unused);
    return vmin;
}

std::optional<MorphFormat>
MorphableScheme::shiftedFormat(addr::CounterBlockId cb, std::uint64_t idx,
                               addr::CounterValue new_value) const
{
    const auto [first, last] = blockRange(cb);
    const std::uint16_t *offs = off_.data();
    const addr::CounterValue vmin = shiftedMajor(cb, idx, new_value);
    // Summary of the shifted offsets (idx replaced by new_value); the
    // format predicates need nothing more.
    const std::uint64_t shift = majors_[cb] - vmin;
    const std::uint64_t new_off = new_value - vmin;
    std::uint64_t max_off = new_off;
    unsigned nonzero = new_off != 0, ge8 = new_off >= 8;
    summarizeSpan(offs + first, idx - first, shift, max_off, nonzero, ge8);
    summarizeSpan(offs + idx + 1, last - idx - 1, shift, max_off, nonzero,
                  ge8);
    BlockSummary s;
    s.max_off = max_off;
    s.nonzero = static_cast<std::uint16_t>(nonzero);
    s.ge8 = static_cast<std::uint16_t>(ge8);
    return formatFromSummary(s);
}

WriteResult
MorphableScheme::write(std::uint64_t idx, addr::CounterValue new_value)
{
    assert(new_value > read(idx));
    const addr::CounterBlockId cb = blockOf(idx);
    const addr::CounterValue major = majors_[cb];
    markDirty(cb);
    noteValue(new_value);
    if (new_value >= major) {
        // Counter writes are monotone, so the one changed offset only
        // grows and the block digest updates in O(1) — no 128-offset
        // rescan on the dense path.
        BlockSummary s = summaries_[cb];
        const std::uint64_t old_off = off_[idx];
        const std::uint64_t new_off = new_value - major;
        s.max_off = std::max(s.max_off, new_off);
        s.nonzero += old_off == 0;
        s.ge8 += old_off < 8 && new_off >= 8;
        if (const auto fmt = formatFromSummary(s)) {
            if (*fmt != formats_[cb]) {
                ++totals_.morphs;
                formats_[cb] = *fmt;
            }
            summaries_[cb] = s;
            // The format bounds every offset below 2^16.
            off_[idx] = static_cast<std::uint16_t>(new_off);
            return {new_value, false, 0};
        }
    }
    const auto [first, last] = blockRange(cb);
    // Min-shift re-encode: when the whole block has drifted upward, the
    // major slides up to the block minimum.  No counter value changes,
    // so no covered entity needs re-encryption; every offset is
    // rewritten against the new major (the format bounds them below
    // 2^16).
    if (const auto fmt = shiftedFormat(cb, idx, new_value)) {
        const addr::CounterValue vmin = shiftedMajor(cb, idx, new_value);
        for (std::uint64_t i = first; i < last; ++i)
            off_[i] = static_cast<std::uint16_t>(major + off_[i] - vmin);
        off_[idx] = static_cast<std::uint16_t>(new_value - vmin);
        majors_[cb] = vmin;
        formats_[cb] = *fmt;
        ++totals_.morphs;
        refreshSummary(cb);
        return {new_value, false, 0};
    }
    // Rebase: relevel every value to the block maximum; all covered
    // entities must be re-encrypted with the new shared value.
    addr::CounterValue vmax = new_value, lo_unused = new_value;
    minmaxSpan(off_.data() + first, last - first, major, lo_unused, vmax);
    majors_[cb] = vmax;
    std::fill(off_.begin() + first, off_.begin() + last, 0);
    noteValue(vmax);
    formats_[cb] = MorphFormat::Uniform3;
    summaries_[cb] = BlockSummary{};
    ++totals_.overflows;
    return {vmax, true, last - first};
}

bool
MorphableScheme::cheaplyEncodable(std::uint64_t idx,
                                  addr::CounterValue v) const
{
    // Cheap = the block stays in (possibly min-shifted) dense uniform
    // range: no exception or bitmap capacity is consumed.
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    // Summary fast path: when another entity still sits at the major
    // (so the others' minimum is known) and idx does not hold the block
    // maximum (so the others' maximum is known), the min/max over
    // "everyone but idx, plus v" follows from the digest alone.
    const BlockSummary &s = summaries_[cb];
    const addr::CounterValue major = majors_[cb];
    const std::uint64_t off_idx = off_[idx];
    const std::uint64_t n = last - first;
    const std::uint64_t nonzero_others = s.nonzero - (off_idx != 0);
    if (nonzero_others < n - 1 && off_idx < s.max_off) {
        const addr::CounterValue vmin = std::min(v, major);
        const addr::CounterValue vmax =
            std::max(v, major + s.max_off);
        return vmax - vmin < 8;
    }
    addr::CounterValue vmin = v, vmax = v;
    const std::uint16_t *offs = off_.data();
    minmaxSpan(offs + first, idx - first, major, vmin, vmax);
    minmaxSpan(offs + idx + 1, last - idx - 1, major, vmin, vmax);
    return vmax - vmin < 8;
}

WriteResult
MorphableScheme::relevelBlock(std::uint64_t idx, addr::CounterValue target)
{
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    assert(target > blockMax(idx));
    markDirty(cb);
    majors_[cb] = target;
    std::fill(off_.begin() + first, off_.begin() + last, 0);
    noteValue(target);
    formats_[cb] = MorphFormat::Uniform3;
    summaries_[cb] = BlockSummary{};
    return {target, false, last - first};
}

void
MorphableScheme::initBlock(addr::CounterBlockId cb, util::Rng &rng,
                           addr::CounterValue mean)
{
    const addr::CounterValue major =
        rng.nextInRange(mean / 2, mean + mean / 2);
    const auto [first, last] = blockRange(cb);
    const std::size_t n = last - first;
    // Releveling is the fixed point of split-counter dynamics: a block
    // that has overflowed holds all-equal values, and subsequent writes
    // add only a small drift.  Model exactly that: most blocks sit at
    // their major with a handful of small drifted minors, and a few
    // carry larger bitmap-encoded offsets.  Each minor is drawn before
    // the slot it lands in; the draws land in `drift` (a later draw to
    // one slot replaces an earlier one) and their slots in `touched`.
    std::uint16_t drift[kCoverage] = {};
    std::uint64_t touched[11 + 8]; // at most 11 small and 8 large draws
    unsigned n_touched = 0;
    const unsigned drifted = static_cast<unsigned>(rng.nextBelow(12));
    for (unsigned k = 0; k < drifted; ++k) {
        const auto minor = static_cast<std::uint16_t>(1 + rng.nextBelow(7));
        const std::uint64_t slot = rng.nextBelow(n);
        drift[slot] = minor;
        touched[n_touched++] = slot;
    }
    if (rng.nextBool(0.1)) {
        const unsigned big = 1 + static_cast<unsigned>(rng.nextBelow(8));
        for (unsigned k = 0; k < big; ++k) {
            const auto minor =
                static_cast<std::uint16_t>(8 + rng.nextBelow(56));
            const std::uint64_t slot = rng.nextBelow(n);
            drift[slot] = minor;
            touched[n_touched++] = slot;
        }
    }
    // Only the drifted slots are written: a block whose exact summary
    // shows no non-zero offset is all zeros already (as the constructor
    // leaves every block).
    if (summaries_[cb].nonzero != 0)
        std::fill(off_.begin() + first, off_.begin() + last, 0);
    // Every minor is non-zero, so a slot reads zero here once it has been
    // taken (repeated slots count once, with their last minor).
    BlockSummary s;
    for (unsigned k = 0; k < n_touched; ++k) {
        const std::uint16_t off = drift[touched[k]];
        if (off == 0)
            continue;
        drift[touched[k]] = 0;
        off_[first + touched[k]] = off;
        s.max_off = std::max<std::uint64_t>(s.max_off, off);
        ++s.nonzero;
        s.ge8 += off >= 8;
    }
    const auto fmt = formatFromSummary(s);
    if (!fmt)
        util::panic("randomInit produced unencodable morphable block");
    majors_[cb] = major;
    formats_[cb] = *fmt;
    summaries_[cb] = s;
    noteValue(major + s.max_off);
}

void
MorphableScheme::clearBlock(addr::CounterBlockId cb)
{
    const auto [first, last] = blockRange(cb);
    std::fill(off_.begin() + first, off_.begin() + last, 0);
    majors_[cb] = 0;
    formats_[cb] = MorphFormat::Uniform3;
    summaries_[cb] = BlockSummary{};
}

util::BitVec512
MorphableScheme::packBlock(addr::CounterBlockId cb) const
{
    util::BitVec512 bits;
    bits.set(0, kMajorBits, majors_[cb]);
    bits.set(kMajorBits, kFormatBits,
             static_cast<std::uint64_t>(formats_[cb]));
    const auto offsets = blockOffsets(cb);
    const MorphFormatInfo &fmt = infoOf(formats_[cb]);

    if (fmt.id == MorphFormat::Uniform3) {
        for (std::size_t i = 0; i < offsets.size(); ++i)
            bits.set(kPayloadBase + i * fmt.minor_bits, fmt.minor_bits,
                     offsets[i]);
        return bits;
    }
    if (fmt.id == MorphFormat::Uniform3X) {
        // Uniform 3-bit array; offsets >= 8 go to exception slots and
        // leave zero in their uniform position.
        const std::size_t exc_base = kPayloadBase + 128 * 3;
        std::size_t slot = 0;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            if (offsets[i] < 8) {
                bits.set(kPayloadBase + i * 3, 3, offsets[i]);
            } else {
                const std::size_t base = exc_base + slot * 20;
                bits.set(base, 7, i);
                bits.set(base + 7, 13, offsets[i]);
                ++slot;
            }
        }
        assert(slot <= kUniform3xSlots);
        return bits;
    }
    if (fmt.bitmap) {
        std::size_t slot = 0;
        const std::size_t minors_base = kPayloadBase + kCoverage;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            if (offsets[i] == 0)
                continue;
            bits.set(kPayloadBase + i, 1, 1);
            bits.set(minors_base + slot * fmt.minor_bits, fmt.minor_bits,
                     offsets[i]);
            ++slot;
        }
        assert(slot <= fmt.max_nonzero);
        return bits;
    }
    // Index16: (7-bit index, 16-bit minor) pairs; unused slots zero.
    std::size_t slot = 0;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        if (offsets[i] == 0)
            continue;
        const std::size_t base = kPayloadBase + slot * 23;
        bits.set(base, 7, i);
        bits.set(base + 7, 16, offsets[i]);
        ++slot;
    }
    assert(slot <= fmt.max_nonzero);
    return bits;
}

std::pair<addr::CounterValue, std::vector<std::uint64_t>>
MorphableScheme::unpackBlock(const util::BitVec512 &bits)
{
    const addr::CounterValue major = bits.get(0, kMajorBits);
    const auto fmt_id =
        static_cast<MorphFormat>(bits.get(kMajorBits, kFormatBits));
    const MorphFormatInfo &fmt = infoOf(fmt_id);
    std::vector<std::uint64_t> offsets(kCoverage, 0);

    if (fmt.id == MorphFormat::Uniform3) {
        for (std::size_t i = 0; i < offsets.size(); ++i)
            offsets[i] =
                bits.get(kPayloadBase + i * fmt.minor_bits, fmt.minor_bits);
    } else if (fmt.id == MorphFormat::Uniform3X) {
        for (std::size_t i = 0; i < offsets.size(); ++i)
            offsets[i] = bits.get(kPayloadBase + i * 3, 3);
        const std::size_t exc_base = kPayloadBase + 128 * 3;
        for (std::size_t slot = 0; slot < kUniform3xSlots; ++slot) {
            const std::size_t base = exc_base + slot * 20;
            const std::uint64_t minor = bits.get(base + 7, 13);
            if (minor != 0)
                offsets[bits.get(base, 7)] = minor;
        }
    } else if (fmt.bitmap) {
        std::size_t slot = 0;
        const std::size_t minors_base = kPayloadBase + kCoverage;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            if (bits.get(kPayloadBase + i, 1)) {
                offsets[i] = bits.get(minors_base + slot * fmt.minor_bits,
                                      fmt.minor_bits);
                ++slot;
            }
        }
    } else {
        for (std::size_t slot = 0; slot < fmt.max_nonzero; ++slot) {
            const std::size_t base = kPayloadBase + slot * 23;
            const std::uint64_t minor = bits.get(base + 7, 16);
            if (minor != 0)
                offsets[bits.get(base, 7)] = minor;
        }
    }
    return {major, offsets};
}

} // namespace rmcc::ctr

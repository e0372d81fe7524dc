#include "cache/set_assoc.hpp"

#include <bit>
#include <cstring>

#include "util/log.hpp"

namespace rmcc::cache
{

namespace
{

// The fingerprint scan maps byte k of a loaded word to way w0 + k.
static_assert(std::endian::native == std::endian::little);

constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kByteHighs = 0x8080808080808080ULL;

/**
 * High bit of each byte of x that is zero.  The lowest flagged byte is
 * always a true zero; a borrow may flag bytes above it that are not, so
 * callers either take the lowest or confirm each candidate.
 */
std::uint64_t
zeroBytes(std::uint64_t x)
{
    return (x - kByteOnes) & ~x & kByteHighs;
}

/** Fingerprint bytes w0..w0+7 of a row as one little-endian word. */
std::uint64_t
loadRow8(const std::uint8_t *row, unsigned w0)
{
    std::uint64_t word;
    std::memcpy(&word, row + w0, sizeof word);
    return word;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, std::uint64_t size_bytes,
                             unsigned assoc, unsigned line_bytes,
                             ReplPolicy policy, TagWindow window)
    : name_(std::move(name)), assoc_(assoc), stride_((assoc + 7) & ~7u),
      line_(line_bytes), policy_(policy)
{
    if (assoc_ == 0 || assoc_ > kMaxAssoc || line_ == 0 ||
        size_bytes % (static_cast<std::uint64_t>(assoc_) * line_) != 0) {
        util::fatal("cache %s: size %llu not divisible by assoc*line, or "
                    "assoc %u not in 1..%u",
                    name_.c_str(),
                    static_cast<unsigned long long>(size_bytes), assoc_,
                    kMaxAssoc);
    }
    sets_count_ = size_bytes / (static_cast<std::uint64_t>(assoc_) * line_);
    line_pow2_ = std::has_single_bit(line_);
    if (line_pow2_)
        line_shift_ = static_cast<unsigned>(std::countr_zero(line_));
    sets_pow2_ = std::has_single_bit(sets_count_);
    if (sets_pow2_)
        set_mask_ = sets_count_ - 1;
    const std::uint64_t slots = sets_count_ * stride_;
    tags_.assign(slots, kInvalidTag);
    fp_.assign(slots, 0);
    links_.assign(slots, Link{});
    dirty_.assign(slots, 0);
    sets_.assign(sets_count_, SetState{});
    window_lo_ = window.lo;
    way_of_.assign(window.n, kNoWay);
}

void
SetAssocCache::outsideWindow(addr::Addr tag) const
{
    util::fatal("cache %s: line %llu outside its tag window [%llu, %llu)",
                name_.c_str(), static_cast<unsigned long long>(tag),
                static_cast<unsigned long long>(window_lo_),
                static_cast<unsigned long long>(window_lo_ + way_of_.size()));
}

// rmcc-lint: hot-path
int
SetAssocCache::findWay(std::uint64_t set, addr::Addr tag) const
{
    if (!way_of_.empty()) {
        // A tag below the window wraps to a huge index, so one compare
        // checks both ends.
        const addr::Addr i = tag - window_lo_;
        if (i >= way_of_.size()) [[unlikely]]
            outsideWindow(tag);
        const std::uint8_t w = way_of_[i];
        return w == kNoWay ? -1 : static_cast<int>(w);
    }
    const std::size_t base = set * stride_;
    const addr::Addr *tags = &tags_[base];
    const unsigned hint = sets_[set].mru;
    if (tags[hint] == tag)
        return static_cast<int>(hint);
    // The hint way cannot match again, so rescanning it is one harmless
    // compare.  Tags are unique within a set, so the order candidates
    // are confirmed in cannot change the answer.
    const std::uint8_t *fp = &fp_[base];
    const std::uint64_t needle = kByteOnes * fingerprint(tag);
    for (unsigned w0 = 0; w0 < stride_; w0 += 8) {
        for (std::uint64_t m = zeroBytes(loadRow8(fp, w0) ^ needle); m != 0;
             m &= m - 1) {
            const unsigned w =
                w0 + static_cast<unsigned>(std::countr_zero(m)) / 8;
            if (tags[w] == tag)
                return static_cast<int>(w);
        }
    }
    return -1;
}

// rmcc-lint: hot-path
unsigned
SetAssocCache::victimWay(std::uint64_t set) const
{
    // Invalid ways first (lowest numbered); otherwise the oldest line of
    // the recency list: least recently used (LRU) or earliest filled
    // (FIFO).
    const SetState &st = sets_[set];
    if (st.filled < assoc_) {
        const std::uint8_t *fp = &fp_[set * stride_];
        for (unsigned w0 = 0; w0 < stride_; w0 += 8)
            if (const std::uint64_t m = zeroBytes(loadRow8(fp, w0)))
                return w0 + static_cast<unsigned>(std::countr_zero(m)) / 8;
    }
    return st.oldest;
}

void
SetAssocCache::unlink(std::uint64_t set, unsigned way)
{
    Link *links = &links_[set * stride_];
    SetState &st = sets_[set];
    const Link l = links[way];
    if (l.older != kNoWay)
        links[l.older].newer = l.newer;
    else
        st.oldest = l.newer;
    if (l.newer != kNoWay)
        links[l.newer].older = l.older;
    else
        st.newest = l.older;
}

void
SetAssocCache::pushNewest(std::uint64_t set, unsigned way)
{
    Link *links = &links_[set * stride_];
    SetState &st = sets_[set];
    const auto w = static_cast<std::uint8_t>(way);
    links[way] = {st.newest, kNoWay};
    if (st.newest != kNoWay)
        links[st.newest].newer = w;
    else
        st.oldest = w;
    st.newest = w;
}

AccessResult
SetAssocCache::replaceIn(std::uint64_t set, addr::Addr tag, bool dirty)
{
    const unsigned way = victimWay(set);
    const std::size_t li = set * stride_ + way;
    AccessResult res;
    if (tags_[li] != kInvalidTag) {
        if (!way_of_.empty())
            way_of_[tags_[li] - window_lo_] = kNoWay;
        res.evicted = true;
        res.writeback = dirty_[li] != 0;
        res.victim_addr = tags_[li] * line_;
        if (dirty_[li])
            ++writebacks_;
        unlink(set, way);
    } else {
        ++sets_[set].filled;
    }
    // The caller's findWay has checked tag against the window.
    if (!way_of_.empty())
        way_of_[tag - window_lo_] = static_cast<std::uint8_t>(way);
    tags_[li] = tag;
    fp_[li] = fingerprint(tag);
    dirty_[li] = dirty ? 1 : 0;
    pushNewest(set, way);
    sets_[set].mru = static_cast<std::uint8_t>(way);
    return res;
}

AccessResult
SetAssocCache::access(addr::Addr a, bool is_write)
{
    const addr::Addr tag = tagOf(a);
    const std::uint64_t set = setIndex(a);
    const int way = findWay(set, tag);
    if (way >= 0) {
        const auto w = static_cast<unsigned>(way);
        if (policy_ == ReplPolicy::LRU)
            touch(set, w);
        if (is_write)
            dirty_[set * stride_ + w] = 1;
        sets_[set].mru = static_cast<std::uint8_t>(w);
        ++hits_;
        return {true, false, false, 0};
    }
    ++misses_;
    // Inline the fill, skipping its redundant findWay: the set cannot
    // have gained the tag since the probe above.
    return replaceIn(set, tag, is_write);
}

AccessResult
SetAssocCache::fill(addr::Addr a, bool dirty)
{
    const addr::Addr tag = tagOf(a);
    const std::uint64_t set = setIndex(a);
    const int existing = findWay(set, tag);
    if (existing >= 0) {
        const auto w = static_cast<unsigned>(existing);
        if (dirty)
            dirty_[set * stride_ + w] = 1;
        if (policy_ == ReplPolicy::LRU)
            touch(set, w);
        sets_[set].mru = static_cast<std::uint8_t>(w);
        return {true, false, false, 0};
    }
    return replaceIn(set, tag, dirty);
}

bool
SetAssocCache::probe(addr::Addr a) const
{
    return findWay(setIndex(a), tagOf(a)) >= 0;
}

std::uint64_t
SetAssocCache::countValidIn(addr::Addr lo, addr::Addr hi) const
{
    if (lo >= hi)
        return 0;
    std::uint64_t n = 0;
    for (const addr::Addr tag : tags_) {
        if (tag == kInvalidTag)
            continue;
        const addr::Addr base =
            line_pow2_ ? (tag << line_shift_) : (tag * line_);
        n += (base >= lo && base < hi) ? 1u : 0u;
    }
    return n;
}

bool
SetAssocCache::invalidate(addr::Addr a)
{
    const std::uint64_t set = setIndex(a);
    const int way = findWay(set, tagOf(a));
    if (way < 0)
        return false;
    const std::size_t li = set * stride_ + static_cast<unsigned>(way);
    const bool was_dirty = dirty_[li] != 0;
    if (!way_of_.empty())
        way_of_[tags_[li] - window_lo_] = kNoWay;
    tags_[li] = kInvalidTag;
    fp_[li] = 0;
    dirty_[li] = 0;
    unlink(set, static_cast<unsigned>(way));
    --sets_[set].filled;
    return was_dirty;
}

void
SetAssocCache::touchDirty(addr::Addr a)
{
    const int way = findWay(setIndex(a), tagOf(a));
    if (way >= 0)
        dirty_[setIndex(a) * stride_ + static_cast<unsigned>(way)] = 1;
}

void
SetAssocCache::resetStats()
{
    hits_ = misses_ = writebacks_ = 0;
}

} // namespace rmcc::cache

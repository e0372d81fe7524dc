#include "counters/sc64.hpp"

#include <algorithm>
#include <cassert>

namespace rmcc::ctr
{

Sc64Scheme::Sc64Scheme(std::uint64_t n)
    : CounterScheme((n + kCoverage - 1) / kCoverage), values_(n, 0),
      majors_((n + kCoverage - 1) / kCoverage, 0)
{
}

addr::CounterValue
Sc64Scheme::read(std::uint64_t idx) const
{
    return values_[idx];
}

bool
Sc64Scheme::encodable(std::uint64_t idx,
                      addr::CounterValue new_value) const
{
    const addr::CounterValue major = majors_[blockOf(idx)];
    return new_value >= major && new_value - major < kMinorRange;
}

WriteResult
Sc64Scheme::write(std::uint64_t idx, addr::CounterValue new_value)
{
    assert(new_value > values_[idx]);
    const addr::CounterBlockId cb = blockOf(idx);
    markDirty(cb);
    if (encodable(idx, new_value)) {
        set(idx, new_value);
        return {new_value, false, 0};
    }
    // Overflow: relevel every encoded value in the block to the maximum
    // (paper Sec II-D), which zeroes all minors under a new major; every
    // covered entity's ciphertext must be recomputed with the new value.
    const auto [first, last] = blockRange(cb);
    addr::CounterValue vmax = new_value;
    for (std::uint64_t i = first; i < last; ++i)
        vmax = std::max(vmax, values_[i]);
    majors_[cb] = vmax;
    for (std::uint64_t i = first; i < last; ++i)
        set(i, vmax);
    ++totals_.overflows;
    return {vmax, true, last - first};
}

WriteResult
Sc64Scheme::relevelBlock(std::uint64_t idx, addr::CounterValue target)
{
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    assert(target > blockMax(idx));
    markDirty(cb);
    majors_[cb] = target;
    for (std::uint64_t i = first; i < last; ++i)
        set(i, target);
    return {target, false, last - first};
}

void
Sc64Scheme::initBlock(addr::CounterBlockId cb, util::Rng &rng,
                      addr::CounterValue mean)
{
    const addr::CounterValue major =
        rng.nextInRange(mean / 2, mean + mean / 2);
    majors_[cb] = major;
    const auto [first, last] = blockRange(cb);
    for (std::uint64_t i = first; i < last; ++i)
        set(i, major + rng.nextBelow(kMinorRange));
}

void
Sc64Scheme::clearBlock(addr::CounterBlockId cb)
{
    const auto [first, last] = blockRange(cb);
    majors_[cb] = 0;
    std::fill(values_.begin() + first, values_.begin() + last, 0);
}

} // namespace rmcc::ctr

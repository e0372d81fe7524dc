#include "counters/monolithic.hpp"

#include <cassert>

#include "crypto/otp.hpp"

namespace rmcc::ctr
{

MonolithicScheme::MonolithicScheme(std::uint64_t n)
    : CounterScheme((n + kCoverage - 1) / kCoverage), values_(n, 0)
{
}

addr::CounterValue
MonolithicScheme::read(std::uint64_t idx) const
{
    return values_[idx];
}

WriteResult
MonolithicScheme::write(std::uint64_t idx, addr::CounterValue new_value)
{
    assert(new_value > values_[idx]);
    assert(new_value <= crypto::kCounterMask);
    markDirty(blockOf(idx));
    set(idx, new_value);
    return {new_value, false, 0};
}

bool
MonolithicScheme::encodable(std::uint64_t idx,
                            addr::CounterValue new_value) const
{
    (void)idx;
    return new_value <= crypto::kCounterMask;
}

WriteResult
MonolithicScheme::relevelBlock(std::uint64_t idx, addr::CounterValue target)
{
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    assert(target > blockMax(idx));
    markDirty(cb);
    for (std::uint64_t i = first; i < last; ++i)
        set(i, target);
    return {target, false, last - first};
}

void
MonolithicScheme::initBlock(addr::CounterBlockId cb, util::Rng &rng,
                            addr::CounterValue mean)
{
    const auto [first, last] = blockRange(cb);
    for (std::uint64_t i = first; i < last; ++i)
        set(i, rng.nextInRange(mean / 2, mean + mean / 2));
}

void
MonolithicScheme::clearBlock(addr::CounterBlockId cb)
{
    const auto [first, last] = blockRange(cb);
    std::fill(values_.begin() + first, values_.begin() + last, 0);
}

} // namespace rmcc::ctr

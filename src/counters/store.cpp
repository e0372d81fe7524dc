#include "counters/store.hpp"

#include <algorithm>

namespace rmcc::ctr
{

CounterStore::CounterStore(std::uint64_t n) : values_(n, 0)
{
}

void
CounterStore::set(std::uint64_t idx, addr::CounterValue v)
{
    values_[idx] = v;
    observed_max_ = std::max(observed_max_, v);
}

void
CounterStore::setSpan(std::uint64_t first, addr::CounterValue base,
                      const std::uint64_t *offsets, std::size_t n)
{
    std::uint64_t max_off = 0;
    for (std::size_t i = 0; i < n; ++i) {
        values_[first + i] = base + offsets[i];
        max_off = std::max(max_off, offsets[i]);
    }
    if (n != 0)
        observed_max_ = std::max(observed_max_, base + max_off);
}

} // namespace rmcc::ctr

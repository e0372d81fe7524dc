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

} // namespace rmcc::ctr

/**
 * @file
 * Flat 64-bit logical-counter storage of the SC-64 and SGX-monolithic
 * schemes.
 *
 * Those schemes store every counter as a widened 64-bit logical value (the
 * functional truth) and separately model whether a value transition is
 * *encodable* in their 64 B block layout; unencodable transitions are
 * overflows that cost re-encryption traffic.  Morphable Counters do not
 * use it: they store a 16-bit offset per entity from the block's major
 * (counters/morphable.hpp).
 */
#ifndef RMCC_COUNTERS_STORE_HPP
#define RMCC_COUNTERS_STORE_HPP

#include <cstdint>
#include <vector>

#include "address/types.hpp"

namespace rmcc::ctr
{

/**
 * Dense array of logical counter values with observed-max tracking.
 *
 * The observed maximum feeds RMCC's Observed-System-Max register
 * (Sec IV-D2), which caps how high new Memoized Counter Value Groups may
 * start.
 */
class CounterStore
{
  public:
    /** n counters, all zero. */
    explicit CounterStore(std::uint64_t n);

    /** Current logical value of counter idx. */
    addr::CounterValue get(std::uint64_t idx) const { return values_[idx]; }

    /** Dense value array (the schemes' entityStorage() for prefetch). */
    const addr::CounterValue *data() const { return values_.data(); }

    /** Overwrite counter idx; tracks the observed maximum. */
    void set(std::uint64_t idx, addr::CounterValue v);

    /** Number of counters. */
    std::uint64_t size() const
    {
        return static_cast<std::uint64_t>(values_.size());
    }

    /** Largest value ever stored. */
    addr::CounterValue observedMax() const { return observed_max_; }

  private:
    std::vector<addr::CounterValue> values_;
    addr::CounterValue observed_max_ = 0;
};

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_STORE_HPP

/**
 * @file
 * SGX-style monolithic counters: eight dedicated 56-bit counters per 64 B
 * counter block.  Coverage is only eight entities, but counters never
 * overflow within a realistic lifetime (2^56 writebacks).
 */
#ifndef RMCC_COUNTERS_MONOLITHIC_HPP
#define RMCC_COUNTERS_MONOLITHIC_HPP

#include <vector>

#include "counters/scheme.hpp"

namespace rmcc::ctr
{

/** Monolithic 56-bit-per-entity counter scheme. */
class MonolithicScheme final : public CounterScheme
{
  public:
    /** Entities per 64 B block: 8 x 56-bit counters (+ padding). */
    static constexpr unsigned kCoverage = 8;

    explicit MonolithicScheme(std::uint64_t n);

    std::string name() const override { return "SGX-monolithic"; }
    unsigned coverage() const override { return kCoverage; }
    double decodeLatencyNs() const override { return 0.0; }

    addr::CounterValue read(std::uint64_t idx) const override;
    WriteResult write(std::uint64_t idx,
                      addr::CounterValue new_value) override;
    bool encodable(std::uint64_t idx,
                   addr::CounterValue new_value) const override;
    WriteResult relevelBlock(std::uint64_t idx,
                             addr::CounterValue target) override;
    std::uint64_t entities() const override { return values_.size(); }
    EntityStorage entityStorage() const override
    {
        return {values_.data(), sizeof(addr::CounterValue)};
    }

  private:
    void initBlock(addr::CounterBlockId cb, util::Rng &rng,
                   addr::CounterValue mean) override;
    void clearBlock(addr::CounterBlockId cb) override;

    /** Set counter idx to v (tracks the observed maximum). */
    void set(std::uint64_t idx, addr::CounterValue v)
    {
        values_[idx] = v;
        noteValue(v);
    }

    std::vector<addr::CounterValue> values_;
};

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_MONOLITHIC_HPP

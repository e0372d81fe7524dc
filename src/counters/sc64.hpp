/**
 * @file
 * SC-64 split counters (Yan et al., ISCA'06): each 64 B counter block holds
 * a 64-bit major counter shared by 64 entities plus one dedicated 7-bit
 * minor per entity (64*7 + 64 = 512 bits).  A minor overflow relevels the
 * whole block: every encoded value is raised to the block's maximum and all
 * covered entities must be re-encrypted.
 */
#ifndef RMCC_COUNTERS_SC64_HPP
#define RMCC_COUNTERS_SC64_HPP

#include <vector>

#include "counters/scheme.hpp"

namespace rmcc::ctr
{

/** SC-64 split-counter scheme. */
class Sc64Scheme final : public CounterScheme
{
  public:
    /** Entities per counter block. */
    static constexpr unsigned kCoverage = 64;
    /** Minor counter width in bits. */
    static constexpr unsigned kMinorBits = 7;
    /** Exclusive minor bound. */
    static constexpr addr::CounterValue kMinorRange = 1ULL << kMinorBits;

    explicit Sc64Scheme(std::uint64_t n);

    std::string name() const override { return "SC-64"; }
    unsigned coverage() const override { return kCoverage; }
    double decodeLatencyNs() const override { return 1.0; }

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

    /** Major counter of a block (tests/diagnostics). */
    addr::CounterValue major(addr::CounterBlockId cb) const
    {
        return majors_[cb];
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

    std::vector<addr::CounterValue> values_; //!< Logical counter values.
    std::vector<addr::CounterValue> majors_;
};

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_SC64_HPP

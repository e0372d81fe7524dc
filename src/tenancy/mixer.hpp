/**
 * @file
 * The tenant traffic mixer: composes per-workload trace sources into one
 * interleaved, tenant-tagged stream.
 *
 * Each tenant runs one archetype workload (assigned round-robin from the
 * spec's archetype list) but replays it from its own phase offset, so two
 * tenants sharing an archetype never issue the same access at the same
 * step.  Traffic share across tenants is Zipf-distributed (tenant 0 is
 * the hottest; TenancyConfig::skew is the exponent), with an optional
 * hot-tenant storm that forces an extra fraction of all draws onto
 * tenant 0 — the adversarial mix the interference benchmarks measure.
 *
 * The mix streams through the ordinary TraceSink interface, so it is
 * spill-aware end to end: generateMixHandle() goes through the workload
 * registry's spill cache (RMCC_TRACE_SPILL), and 20 M+-record mixes land
 * on disk as checksummed trace files instead of in RAM.
 */
#ifndef RMCC_TENANCY_MIXER_HPP
#define RMCC_TENANCY_MIXER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "tenancy/tenancy.hpp"
#include "trace/trace_buffer.hpp"
#include "workloads/registry.hpp"

namespace rmcc::tenancy
{

/** Everything that determines one mixed trace (the mix fingerprint). */
struct MixSpec
{
    TenancyConfig cfg;
    //! Component workloads; tenant t runs archetypes[t % size()].
    std::vector<const wl::Workload *> archetypes;
    std::size_t records = 0;           //!< Mixed-trace length.
    std::size_t component_records = 0; //!< Base trace length per archetype.
    std::uint64_t seed = 42;
    //! Hot-tenant storm: fraction of all draws forced onto tenant 0 on
    //! top of its Zipf share (0 = no storm).
    double storm_share = 0.0;
};

/**
 * Deterministic interleaver over in-RAM component traces.  Construction
 * generates the component traces and derives the tenant address map from
 * their combined footprint; generate() streams the mix.
 */
class TenantMixer
{
  public:
    /** @throws nothing; malformed specs are fatal (user error). */
    explicit TenantMixer(const MixSpec &spec);

    /** The tag layout every consumer of the mix needs. */
    const TenantAddressMap &addressMap() const { return map_; }

    /**
     * Stream the full mix into a sink.  Deterministic: equal specs give
     * bit-identical streams regardless of sink type (RAM or spill file).
     */
    void generate(trace::TraceSink &sink) const;

    /** Expected long-run traffic share of a tenant under the spec. */
    double expectedShare(std::uint64_t tenant) const;

    const MixSpec &spec() const { return spec_; }

    /** Stable label encoding the spec (cache file and cell names). */
    std::string label() const;

  private:
    MixSpec spec_;
    std::vector<trace::TraceBuffer> bases_;
    TenantAddressMap map_;
};

/** A mixed trace plus the tag layout its consumers need. */
struct TenantMix
{
    wl::TraceHandle handle;
    unsigned tag_shift;
};

/**
 * Generate a mix honoring the RMCC_TRACE_SPILL policy through
 * wl::generateSpillable, keyed by the mix label.
 */
TenantMix generateMixHandle(const MixSpec &spec);

} // namespace rmcc::tenancy

#endif // RMCC_TENANCY_MIXER_HPP

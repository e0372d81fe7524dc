/**
 * @file
 * Multi-tenant configuration and the tenant address-space tag.
 *
 * The tenancy subsystem interleaves N tenants — a handful to millions —
 * onto ONE shared secure memory controller, counter cache, and RMCC memo
 * table.  A tenant is an address-space domain: the mixer tags every
 * virtual address with the issuing tenant's id (at a bit position above
 * any component workload's footprint), and the rig then derives every
 * per-tenant boundary from that tag:
 *
 *  - physical frames come from per-tenant power-of-two arenas
 *    (addr::PageMapper::partitionByTenant), so no counter block or
 *    integrity-tree entity ever spans two tenants;
 *  - memo-table groups carry the owning tenant's domain
 *    (core::MemoConfig::domains), so memoized counter values never leak
 *    across tenants and an optional quota caps any one tenant's share;
 *  - the detection oracle's data plane runs under per-tenant AES
 *    schedules (crypto::deriveDomainKeys via OracleConfig
 *    key_domain_shift).
 *
 * A single tenant (TenancyConfig's default, and SystemConfig's inert
 * TenancyShape) leaves every layer untouched and bit-identical to the
 * single-tenant simulator.
 */
#ifndef RMCC_TENANCY_TENANCY_HPP
#define RMCC_TENANCY_TENANCY_HPP

#include <cstdint>

#include "address/types.hpp"
#include "sim/system_config.hpp"

namespace rmcc::tenancy
{

/** How hard the rig separates tenants sharing the controller. */
enum class IsolationMode
{
    //! Per-tenant frame arenas + memo domains + data-plane key domains.
    Strict,
    //! Tenants share the physical pool, memo table, and platform keys;
    //! only traffic accounting is per-tenant.  The adversarial baseline.
    Shared,
};

/** Shape of a tenant mix. */
struct TenancyConfig
{
    std::uint64_t tenants = 1;  //!< Tenants in the mix (>= 1).
    double skew = 0.99;         //!< Zipf exponent of traffic shares (> 0).
    IsolationMode isolation = IsolationMode::Strict;
    unsigned memo_quota = 0;    //!< Memo groups per tenant (0 = uncapped).
};

/**
 * The tenant address-space tag: tagged vaddr = (tenant << shift) | vaddr.
 *
 * The shift clears every component workload's footprint (and never drops
 * below 2 MB so a huge page cannot span tenants); construction is fatal
 * when tenants * tag span would overflow the packed trace Record's
 * 47-bit vaddr field — the capacity bound that decides how many tenants
 * one trace can carry.
 */
class TenantAddressMap
{
  public:
    //! Floor on the tag position: 2 MB (one huge page) per tenant
    //! minimum, so no page of any mode can hold two tenants' data.
    static constexpr unsigned kMinTagShift = 21;

    /**
     * @param tenants number of address-space domains (>= 1).
     * @param max_component_vaddr largest untagged vaddr any component
     *        trace contains.
     */
    TenantAddressMap(std::uint64_t tenants, addr::Addr max_component_vaddr);

    /** Tag a component vaddr with its tenant id. */
    addr::Addr tag(std::uint64_t tenant, addr::Addr vaddr) const
    {
        return (tenant << shift_) | vaddr;
    }

    /** Tenant id a tagged vaddr belongs to. */
    std::uint64_t tenantOf(addr::Addr tagged) const
    {
        return tagged >> shift_;
    }

    /** Bit position of the tenant id. */
    unsigned tagShift() const { return shift_; }

    std::uint64_t tenants() const { return tenants_; }

  private:
    std::uint64_t tenants_;
    unsigned shift_;
};

/**
 * Fill a SystemConfig's TenancyShape from the parsed knobs and the mix's
 * address map (inert when cfg.tenants == 1).
 */
sim::TenancyShape makeShape(const TenancyConfig &cfg,
                            const TenantAddressMap &map);

/**
 * 64 B blocks per tenant arena for a system configuration, mirroring
 * exactly what the rig's PageMapper will carve (0 when the run is not
 * strict multi-tenant or the arenas would not fit).  log2 of this is the
 * oracle's key_domain_shift; tenant t's L0 blocks are
 * [t * arenaBlocks, (t+1) * arenaBlocks).
 */
std::uint64_t arenaBlocks(const sim::SystemConfig &cfg);

/**
 * OracleConfig::key_domain_shift for a strict multi-tenant run: log2 of
 * arenaBlocks(cfg), so the oracle's per-domain data keys split exactly
 * along arena boundaries.  0 (single key domain) when inert.
 */
unsigned keyDomainShift(const sim::SystemConfig &cfg);

} // namespace rmcc::tenancy

#endif // RMCC_TENANCY_TENANCY_HPP

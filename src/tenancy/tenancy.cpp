#include "tenancy/tenancy.hpp"

#include <bit>

#include "address/page_mapper.hpp"
#include "trace/record.hpp"
#include "util/log.hpp"

namespace rmcc::tenancy
{

TenantAddressMap::TenantAddressMap(std::uint64_t tenants,
                                   addr::Addr max_component_vaddr)
    : tenants_(tenants)
{
    if (tenants == 0)
        util::fatal("TenantAddressMap: zero tenants");
    const unsigned span =
        static_cast<unsigned>(std::bit_width(max_component_vaddr));
    shift_ = span > kMinTagShift ? span : kMinTagShift;
    const unsigned id_bits =
        static_cast<unsigned>(std::bit_width(tenants - 1));
    // The packed trace Record holds 47-bit vaddrs; tag + footprint must
    // fit or tagging would silently alias tenants.
    if (shift_ + id_bits > 47)
        util::fatal("TenantAddressMap: %llu tenants x %u-bit footprints "
                    "overflow the 47-bit trace vaddr (max %llx)",
                    static_cast<unsigned long long>(tenants), shift_,
                    static_cast<unsigned long long>(trace::kMaxRecordVaddr));
}

sim::TenancyShape
makeShape(const TenancyConfig &cfg, const TenantAddressMap &map)
{
    sim::TenancyShape shape;
    shape.tenants = cfg.tenants;
    shape.tag_shift = map.tagShift();
    shape.strict = cfg.isolation == IsolationMode::Strict;
    shape.memo_quota = cfg.memo_quota;
    return shape;
}

std::uint64_t
arenaBlocks(const sim::SystemConfig &cfg)
{
    if (!(cfg.secure && cfg.tenancy.strict && cfg.tenancy.tenants > 1))
        return 0;
    const std::uint64_t frames = addr::PageMapper::arenaFramesFor(
        cfg.page_mode, cfg.phys_bytes, cfg.tenancy.tenants);
    const std::uint64_t page = cfg.page_mode == addr::PageMode::Huge2M
                                   ? addr::kHugePageSize
                                   : addr::kSmallPageSize;
    return frames * (page / addr::kBlockSize);
}

unsigned
keyDomainShift(const sim::SystemConfig &cfg)
{
    const std::uint64_t blocks = arenaBlocks(cfg);
    // Arena blocks are a power of two by construction (power-of-two frame
    // count times power-of-two page size).
    return blocks == 0
               ? 0
               : static_cast<unsigned>(std::countr_zero(blocks));
}

} // namespace rmcc::tenancy

#include "sim/front_end.hpp"

#include <stdexcept>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "sim/trace_drive.hpp"
#include "util/cancel.hpp"

namespace rmcc::sim::detail
{

FrontEndConfig
frontEndConfig(const SystemConfig &cfg)
{
    if (cfg.phys_bytes / addr::kBlockSize > (std::uint64_t{1} << 32))
        throw std::invalid_argument(
            "front end: phys_bytes above 2^32 blocks (the recording "
            "stores 32-bit block numbers)");
    FrontEndConfig fe;
    fe.page_mode = cfg.page_mode;
    fe.phys_bytes = cfg.phys_bytes;
    fe.mapper_seed = cfg.seed ^ 0x9a9a;
    fe.tenant_arenas =
        cfg.secure && cfg.tenancy.strict && cfg.tenancy.tenants > 1;
    if (fe.tenant_arenas) {
        fe.tag_shift = cfg.tenancy.tag_shift;
        fe.tenants = cfg.tenancy.tenants;
    }
    fe.l1_bytes = cfg.l1.size_bytes;
    fe.l1_assoc = cfg.l1.assoc;
    fe.l2_bytes = cfg.l2.size_bytes;
    fe.l2_assoc = cfg.l2.assoc;
    fe.llc_bytes = cfg.llc.size_bytes;
    fe.llc_assoc = cfg.llc.assoc;
    fe.tlb_entries = cfg.tlb_entries;
    fe.tlb_assoc = cfg.tlb_assoc;
    return fe;
}

addr::PageMapper
makePageMapper(const FrontEndConfig &fe)
{
    addr::PageMapper mapper(fe.page_mode, fe.phys_bytes, fe.mapper_seed);
    // Strict isolation: per-tenant physical arenas, before any first
    // touch.
    if (fe.tenant_arenas)
        mapper.partitionByTenant(fe.tag_shift, fe.tenants);
    return mapper;
}

FrontEndRecording
recordFrontEnd(const trace::TraceSource &trace, const FrontEndConfig &fe)
{
    using R = FrontEndRecording;
    addr::PageMapper mapper = makePageMapper(fe);
    cache::Tlb tlb(fe.tlb_entries, fe.tlb_assoc, mapper.pageSize());
    // Latencies do not change an access's outcome; the recording keeps
    // none.
    cache::Hierarchy hier({fe.l1_bytes, fe.l1_assoc, 0.0},
                          {fe.l2_bytes, fe.l2_assoc, 0.0},
                          {fe.llc_bytes, fe.llc_assoc, 0.0});
    R rec;
    rec.codes.reserve(trace.size());
    // The recording fixes every physical address a replay uses: replays
    // read the LLC-miss and victim blocks from it and translate nothing.
    TraceDrive drive(trace, nullptr);
    drive.forEachRecord(
        mapper, [&hier](addr::Addr next) { hier.prefetch(next); },
        [&](std::size_t i, const trace::Record &r, addr::Addr paddr) {
            if ((i & 0x1fff) == 0)
                util::pollCancel();
            std::uint8_t code = tlb.access(r.vaddr) ? 0 : R::kTlbMiss;
            const cache::HierarchyResult h = hier.access(paddr, r.is_write);
            code |= h.llc_miss          ? R::kLlcMiss
                    : h.hit_level == 3 ? R::kLlcHit
                                       : R::kUpperHit;
            if (h.llc_miss)
                rec.misses.push_back(
                    static_cast<std::uint32_t>(addr::blockOf(paddr)));
            if (h.memory_writeback) {
                code |= R::kWriteback;
                rec.victims.push_back(static_cast<std::uint32_t>(
                    addr::blockOf(*h.memory_writeback)));
            }
            rec.codes.push_back(code);
        });
    rec.misses.shrink_to_fit();
    rec.victims.shrink_to_fit();
    return rec;
}

std::shared_ptr<const FrontEndRecording>
frontEndRecording(const trace::TraceSource &trace, const SystemConfig &cfg)
{
    const FrontEndConfig fe = frontEndConfig(cfg);
    return trace.memo().get<FrontEndRecording>(
        fe, [&trace, &fe] { return recordFrontEnd(trace, fe); });
}

} // namespace rmcc::sim::detail

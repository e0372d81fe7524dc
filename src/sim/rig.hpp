/**
 * @file
 * Internal: the assembled component stack ("rig") both simulators drive.
 */
#ifndef RMCC_SIM_RIG_HPP
#define RMCC_SIM_RIG_HPP

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/rmcc_engine.hpp"
#include "counters/tree.hpp"
#include "crypto/dispatch.hpp"
#include "dram/ddr4.hpp"
#include "mc/secure_mc.hpp"
#include "sim/front_end.hpp"
#include "sim/system_config.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace rmcc::sim::detail
{

/** Derive the effective RMCC configuration for a run. */
inline core::RmccConfig
effectiveRmccConfig(const SystemConfig &cfg)
{
    core::RmccConfig rc = cfg.rmcc_cfg;
    rc.enabled = cfg.rmcc && cfg.secure;
    // Epochs scale with the simulated window (the paper's 1 M-access
    // epochs assume multi-billion-access lifetimes; see DESIGN.md).
    rc.budget.epoch_accesses = std::max<std::uint64_t>(
        50000, std::min<std::uint64_t>(rc.budget.epoch_accesses,
                                       cfg.trace_records / 8));
    // Strict multi-tenancy: memo-table groups carry the owning tenant's
    // domain tag, so one tenant's reads can never hit (or evict under a
    // quota) another tenant's memoized counter values.
    if (cfg.secure && cfg.tenancy.strict && cfg.tenancy.tenants > 1) {
        rc.memo.domains = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(cfg.tenancy.tenants, 0xffffffffULL));
        rc.memo.quota_groups = cfg.tenancy.memo_quota;
    }
    return rc;
}

/**
 * Blocks per tenant arena of cfg's front end (0 when it has none).
 * Throws, as frontEndConfig does, for a phys_bytes the recording cannot
 * hold.
 */
inline std::uint64_t
tenantArenaBlocks(const SystemConfig &cfg)
{
    return makePageMapper(frontEndConfig(cfg)).arenaBytes() /
           addr::kBlockSize;
}

/**
 * A cell's counter tree in its initial state, leased from the calling
 * thread's slot.
 *
 * The initial tree depends only on the key below, and building one
 * (millions of counters and their randomInit draws) is most of a short
 * replay's fixed cost.  So each thread keeps the tree of its last cell:
 * a lease with the same key takes it and restores it
 * (IntegrityTree::restoreInit, which redraws only the chunks that cell
 * dirtied), and a lease with another key frees it and builds a fresh
 * one.  The lease hands the tree back to the slot when it ends, however
 * its cell ended.  A second lease taken while the first is held builds
 * its own tree, and whichever ends last stays in the slot.
 */
class TreeLease
{
  public:
    /**
     * What a cell's initial tree depends on: a projection of
     * cellKey(cfg), so cells with equal cell keys share a tree key.
     */
    struct Key
    {
        ctr::SchemeKind scheme = ctr::SchemeKind::Morphable;
        std::uint64_t data_blocks = 0;
        bool secure = false; //!< Only secure cells randomInit their tree.
        std::uint64_t seed = 0;
        addr::CounterValue init_mean = 0;

        bool operator==(const Key &) const = default;
    };

    /** cfg's tree key. */
    static Key keyOf(const SystemConfig &cfg);

    explicit TreeLease(const SystemConfig &cfg);
    ~TreeLease();
    TreeLease(const TreeLease &) = delete;
    TreeLease &operator=(const TreeLease &) = delete;

    ctr::IntegrityTree &tree() const { return *tree_; }

  private:
    Key key_;
    std::unique_ptr<ctr::IntegrityTree> tree_;
};

/**
 * All components of one simulated system behind the front end.  The front
 * end itself (translation, TLB, caches) is the trace's recording.
 */
struct SimRig
{
    //! Strict-tenancy arena size in blocks; 0 without tenant arenas.
    //! First member: it rejects a bad phys_bytes before the tree is
    //! allocated.
    std::uint64_t arena_blocks;
    TreeLease lease; //!< Outlives every member that holds `tree`.
    ctr::IntegrityTree &tree;
    core::RmccEngine engine;
    dram::Ddr4 dram;
    mc::SecureMc mc;
    addr::CounterValue init_max; //!< Observed max right after init.

    explicit SimRig(const SystemConfig &cfg)
        : arena_blocks(tenantArenaBlocks(cfg)), lease(cfg),
          tree(lease.tree()),
          engine(effectiveRmccConfig(cfg), tree),
          dram(cfg.dram),
          mc(mc::McConfig{cfg.secure, cfg.counter_cache_bytes,
                          cfg.counter_cache_assoc, cfg.lat, cfg.recovery},
             tree, engine, dram),
          init_max(0)
    {
        // The timing model charges latencies instead of running crypto,
        // so a garbage RMCC_CRYPTO_IMPL would otherwise never be
        // parsed.  Resolve the dispatch up front: runner knobs are
        // caller contract and must abort loudly (same policy as the
        // other strict RMCC_* vars).
        crypto::hwAesActive();
        if (arena_blocks != 0) {
            // Strict isolation (per-tenant arenas, see makePageMapper):
            // a domain resolver translates a memo consultation's
            // (level, entity) into the owning tenant.  Arena sizes are
            // powers of two and at least the widest counter coverage, so
            // entity -> tenant is a pure divide at every tree level.
            engine.setDomainResolver(
                [&t = tree, arena = arena_blocks](unsigned level,
                                                  std::uint64_t idx) {
                    std::uint64_t blk = idx;
                    for (unsigned k = 0; k < level; ++k)
                        blk *= t.level(k).coverage();
                    return static_cast<std::uint32_t>(blk / arena);
                });
        }
        init_max = tree.observedMax();
    }
};

/**
 * Lifetime warm-up of a secure RMCC cell with precondition on (a no-op
 * for every other cell): replay the trace once through the counter tree
 * and RMCC engine, with an unconstrained budget, so the self-reinforcing
 * update converges counter state the way the unsimulated prior lifetime
 * would have (the paper warms its integrity tree for 25 B instructions
 * in atomic mode before measuring).  Budgets drain to zero afterwards:
 * the measured window runs at steady accrual.
 *
 * The pass reads only the trace's front-end recording: counter reads
 * happen at the recorded LLC-miss blocks and counter writes at the
 * recorded writeback victims, without the trace, translation or caches.
 * Records with neither are skipped unread, so the pass's own
 * FrontEndReplay tallies (llcAccesses) miss its LLC hits; nothing reads
 * them.
 */
// rmcc-lint: hot-path
inline void
preconditionRmcc(SimRig &rig, const SystemConfig &cfg,
                 const FrontEndRecording &recording)
{
    if (!(cfg.secure && cfg.rmcc && cfg.precondition))
        return;
    rig.engine.setBudgetPools(cfg.precondition_budget_fraction *
                              static_cast<double>(cfg.trace_records));
    const unsigned cov0 = rig.tree.level(0).coverage();
    std::uint64_t ops = 0;
    FrontEndReplay front(recording);
    // The whole recording is known up front: the level-0 counter entry
    // the engine reads for the next LLC miss is prefetched while this one
    // is processed.
    const ctr::EntityStorage ctr0 = rig.tree.level(0).entityStorage();
    const std::size_t records = recording.codes.size();
    std::size_t i = 0;
    while (i < records) {
        if ((i & 0x1fff) == 0)
            util::pollCancel();
        // Only LLC misses and writebacks touch a counter: skip every other
        // record, up to the next poll.
        const std::size_t poll_at = std::min(records, (i | 0x1fff) + 1);
        i += front.skipToMemoryEvent(poll_at - i);
        if (i == poll_at)
            continue;
        ++i;
        const FrontEndOutcome h = front.next();
        if (h.llc_miss) {
            addr::Addr ahead = 0;
            if (front.nextMiss(&ahead))
                ctr0.prefetch(addr::blockOf(ahead));
            const addr::BlockId blk = addr::blockOf(h.miss);
            rig.engine.onReadCounterUse(0, blk);
            if (ops % 8 == 0)
                rig.engine.onReadCounterUse(1, blk / cov0);
            ++ops;
            rig.engine.onDramAccess();
        }
        if (h.writeback) {
            const addr::BlockId blk = addr::blockOf(h.victim);
            rig.engine.onWriteCounter(0, blk);
            // L0 counter blocks reach memory roughly once per several
            // data writebacks; exercise the L1 table at that rate.
            if (ops % 8 == 0)
                rig.engine.onWriteCounter(1, blk / cov0);
            ++ops;
            rig.engine.onDramAccess();
        }
    }
    rig.engine.setBudgetPools(0.0);
}

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_RIG_HPP

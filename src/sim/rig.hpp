/**
 * @file
 * Internal: the assembled component stack ("rig") both simulators drive.
 */
#ifndef RMCC_SIM_RIG_HPP
#define RMCC_SIM_RIG_HPP

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "address/page_mapper.hpp"
#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "core/rmcc_engine.hpp"
#include "counters/tree.hpp"
#include "crypto/dispatch.hpp"
#include "dram/ddr4.hpp"
#include "mc/recovery.hpp"
#include "mc/secure_mc.hpp"
#include "sim/system_config.hpp"
#include "sim/trace_drive.hpp"
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
 * cfg.phys_bytes, refused above 2^32 blocks: the warm-up's cache
 * recording (RecordedCaches) stores writeback victims as 32-bit block
 * numbers.
 */
inline std::uint64_t
recordablePhysBytes(const SystemConfig &cfg)
{
    if (cfg.phys_bytes / addr::kBlockSize > (std::uint64_t{1} << 32))
        throw std::invalid_argument("SimRig: phys_bytes above 2^32 blocks");
    return cfg.phys_bytes;
}

/** All components of one simulated system. */
struct SimRig
{
    addr::PageMapper mapper;
    cache::Tlb tlb;
    cache::Hierarchy hier;
    ctr::IntegrityTree tree;
    core::RmccEngine engine;
    dram::Ddr4 dram;
    mc::SecureMc mc;
    addr::CounterValue init_max; //!< Observed max right after init.

    explicit SimRig(const SystemConfig &cfg)
        : mapper(cfg.page_mode, recordablePhysBytes(cfg),
                 cfg.seed ^ 0x9a9a),
          tlb(cfg.tlb_entries, cfg.tlb_assoc, mapper.pageSize()),
          hier(cfg.l1, cfg.l2, cfg.llc),
          tree(cfg.scheme, cfg.phys_bytes / addr::kBlockSize),
          engine(effectiveRmccConfig(cfg), tree),
          dram(cfg.dram),
          mc(mc::McConfig{cfg.secure, cfg.counter_cache_bytes,
                          cfg.counter_cache_assoc, cfg.lat,
                          mc::recoveryConfigFromEnv()},
             tree, engine, dram),
          init_max(0)
    {
        // The timing model charges latencies instead of running crypto,
        // so a garbage RMCC_CRYPTO_IMPL would otherwise never be
        // parsed.  Resolve the dispatch up front: runner knobs are
        // caller contract and must abort loudly (same policy as the
        // other strict RMCC_* vars).
        crypto::hwAesActive();
        if (cfg.secure && cfg.tenancy.strict && cfg.tenancy.tenants > 1) {
            // Strict isolation: per-tenant physical arenas (before any
            // first touch), and a domain resolver translating a memo
            // consultation's (level, entity) into the owning tenant.
            // Arena sizes are powers of two and at least the widest
            // counter coverage, so entity -> tenant is a pure divide at
            // every tree level.
            mapper.partitionByTenant(cfg.tenancy.tag_shift,
                                     cfg.tenancy.tenants);
            const std::uint64_t arena_blocks =
                mapper.arenaBytes() / addr::kBlockSize;
            engine.setDomainResolver(
                [&t = tree, arena_blocks](unsigned level,
                                          std::uint64_t idx) {
                    std::uint64_t blk = idx;
                    for (unsigned k = 0; k < level; ++k)
                        blk *= t.level(k).coverage();
                    return static_cast<std::uint32_t>(blk / arena_blocks);
                });
        }
        util::Rng rng(cfg.seed ^ 0xc0c0);
        if (cfg.secure)
            tree.randomInit(rng, cfg.counter_init_mean);
        init_max = tree.observedMax();
    }
};

/** What the measured loop needs from one record's trip through the caches. */
struct CacheOutcome
{
    bool llc_hit = false;   //!< Served by the LLC (L1 and L2 missed).
    bool llc_miss = false;  //!< Goes to memory.
    bool writeback = false; //!< A dirty LLC victim goes to memory...
    addr::Addr victim = 0;  //!< ...at this line address.
};

/**
 * Cache outcomes of a cell with no warm-up: each record goes through
 * rig.hier as the measured loop reaches it.
 */
class LiveCaches
{
  public:
    explicit LiveCaches(cache::Hierarchy &hier) : hier_(hier) {}

    void prefetch(addr::Addr paddr) const { hier_.prefetch(paddr); }

    CacheOutcome next(addr::Addr paddr, bool is_write)
    {
        const cache::HierarchyResult h = hier_.access(paddr, is_write);
        return {h.hit_level == 3, h.llc_miss, h.memory_writeback.has_value(),
                h.memory_writeback.value_or(0)};
    }

    std::uint64_t llcAccesses() const { return hier_.llc().accesses(); }
    std::uint64_t llcMisses() const { return hier_.llc().misses(); }

  private:
    cache::Hierarchy &hier_;
};

/**
 * Cache outcomes of a cell that warms up: the warm-up pass drives
 * rig.hier over the whole trace and records each record's outcome, and
 * the measured loop, which sees the same (paddr, is_write) stream in
 * the same order, replays the recording instead of running the
 * hierarchy a second time.
 *
 * Cost: one byte per record plus four bytes per memory writeback (the
 * victim's block number; SimRig bounds physical memory to 2^32 blocks).
 */
class RecordedCaches
{
  public:
    explicit RecordedCaches(std::size_t records) { codes_.reserve(records); }

    /** Warm-up side: append the next record's hierarchy result. */
    void record(const cache::HierarchyResult &h)
    {
        std::uint8_t code = h.llc_miss          ? kLlcMiss
                            : h.hit_level == 3 ? kLlcHit
                                               : kUpperHit;
        if (h.memory_writeback) {
            code |= kWriteback;
            victims_.push_back(static_cast<std::uint32_t>(
                addr::blockOf(*h.memory_writeback)));
        }
        codes_.push_back(code);
    }

    /** Nothing to prefetch: the recording is read sequentially. */
    void prefetch(addr::Addr) const {}

    /** Measured side: the next record's outcome, in trace order. */
    CacheOutcome next(addr::Addr, bool)
    {
        const std::uint8_t code = codes_[next_code_++];
        const std::uint8_t level = code & kLevelMask;
        CacheOutcome o;
        o.llc_hit = level == kLlcHit;
        o.llc_miss = level == kLlcMiss;
        llc_accesses_ += level != kUpperHit;
        llc_misses_ += o.llc_miss;
        if ((code & kWriteback) != 0) {
            o.writeback = true;
            o.victim = addr::blockBase(victims_[next_victim_++]);
        }
        return o;
    }

    /** LLC lookups and misses replayed so far (the llc.* obs probes). */
    std::uint64_t llcAccesses() const { return llc_accesses_; }
    std::uint64_t llcMisses() const { return llc_misses_; }

  private:
    static constexpr std::uint8_t kUpperHit = 0; //!< L1 or L2 hit.
    static constexpr std::uint8_t kLlcHit = 1;
    static constexpr std::uint8_t kLlcMiss = 2;
    static constexpr std::uint8_t kLevelMask = 3;
    static constexpr std::uint8_t kWriteback = 4;

    std::vector<std::uint8_t> codes_;
    std::vector<std::uint32_t> victims_;
    std::size_t next_code_ = 0, next_victim_ = 0;
    std::uint64_t llc_accesses_ = 0, llc_misses_ = 0;
};

/**
 * Lifetime warm-up: replay the trace once through the counter tree and
 * RMCC engine, with an unconstrained budget, so the self-reinforcing
 * update converges counter state the way the unsimulated prior lifetime
 * would have (the paper warms its integrity tree for 25 B instructions
 * in atomic mode before measuring).  Budgets drain to zero afterwards:
 * the measured window runs at steady accrual.
 *
 * The pass drives rig.hier, so counter reads happen at LLC-miss
 * granularity and counter writes at true writeback addresses, and
 * returns each record's cache outcome for the measured loop to replay.
 * It leaves rig.hier in its end-of-trace state, which nothing but the
 * recording reads afterwards.
 */
// rmcc-lint: hot-path
inline RecordedCaches
preconditionRmcc(SimRig &rig, const SystemConfig &cfg,
                 const trace::TraceSource &trace)
{
    RecordedCaches recording(trace.size());
    rig.engine.setBudgetPools(cfg.precondition_budget_fraction *
                              static_cast<double>(cfg.trace_records));
    const unsigned cov0 = rig.tree.level(0).coverage();
    std::uint64_t ops = 0;
    // The whole trace is known up front, so the pass runs the same
    // one-record lookahead as the measured loop: the next record's
    // cache sets and the level-0 counter the engine will read for it
    // are prefetched while this record is processed.
    const addr::CounterValue *ctr0 = rig.tree.level(0).rawValues();
    TraceDrive drive(trace, nullptr);
    drive.forEachRecord(
        rig.mapper,
        [&rig, ctr0](addr::Addr next) {
            rig.hier.prefetch(next);
            if (ctr0 != nullptr)
                __builtin_prefetch(ctr0 + addr::blockOf(next));
        },
        [&](std::size_t i, const trace::Record &rec, addr::Addr paddr) {
            if ((i & 0x1fff) == 0)
                util::pollCancel();
            const cache::HierarchyResult h =
                rig.hier.access(paddr, rec.is_write);
            recording.record(h);
            if (h.llc_miss) {
                const addr::BlockId blk = addr::blockOf(paddr);
                rig.engine.onReadCounterUse(0, blk);
                if (ops % 8 == 0)
                    rig.engine.onReadCounterUse(1, blk / cov0);
                ++ops;
                rig.engine.onDramAccess();
            }
            if (h.memory_writeback) {
                const addr::BlockId blk =
                    addr::blockOf(*h.memory_writeback);
                rig.engine.onWriteCounter(0, blk);
                // L0 counter blocks reach memory roughly once per
                // several data writebacks; exercise the L1 table at
                // that rate.
                if (ops % 8 == 0)
                    rig.engine.onWriteCounter(1, blk / cov0);
                ++ops;
                rig.engine.onDramAccess();
            }
        });
    rig.engine.setBudgetPools(0.0);
    return recording;
}

/**
 * Run a cell's measured loop over its cache-outcome source.  A cell
 * that warms up (secure RMCC with precondition on) runs the warm-up,
 * which drives rig.hier once, and replays its recording; every other
 * cell drives rig.hier live.  replay is called with a RecordedCaches or
 * a LiveCaches, so the loop body is compiled once per source and pays
 * no per-record branch to tell them apart.
 */
template <class Replay>
auto
replayWithCaches(SimRig &rig, const SystemConfig &cfg,
                 const trace::TraceSource &trace, Replay &&replay)
{
    if (cfg.secure && cfg.rmcc && cfg.precondition) {
        RecordedCaches recorded = preconditionRmcc(rig, cfg, trace);
        return replay(recorded);
    }
    LiveCaches live(rig.hier);
    return replay(live);
}

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_RIG_HPP

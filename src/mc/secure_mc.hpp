/**
 * @file
 * The secure memory controller: counter cache, integrity-tree walk, OTP
 * latency accounting, RMCC consultation, and overflow handling — the
 * component every timing experiment in the paper exercises.
 */
#ifndef RMCC_MC_SECURE_MC_HPP
#define RMCC_MC_SECURE_MC_HPP

#include <cstdint>
#include <utility>

#include "cache/set_assoc.hpp"
#include "core/rmcc_engine.hpp"
#include "counters/tree.hpp"
#include "dram/ddr4.hpp"
#include "mc/latency.hpp"
#include "mc/overflow_engine.hpp"
#include "mc/recovery.hpp"
#include "util/stats.hpp"

namespace rmcc::obs
{
class Registry;
}

namespace rmcc::mc
{

/** Memory-controller configuration (Table I defaults). */
struct McConfig
{
    bool secure = true;               //!< false = non-secure baseline.
    std::uint64_t counter_cache_bytes = 128 * 1024;
    unsigned counter_cache_assoc = 32;
    LatencyConfig lat;
    RecoveryConfig recovery;          //!< Self-healing policy (off default).
};

/**
 * Verdict of an observer's integrity check on one read, consumed by the
 * recovery path.  Mirrors the DetectionOracle's MAC-chain walk: pass is
 * "every MAC from the trust anchor down matched".
 */
struct McReadCheck
{
    bool pass = true;
    //! Failing layer: -1 = data MAC, k >= 0 = tree node at level k,
    //! -2 = not applicable (check passed).
    int fail_level = -2;
};

/**
 * Observer of the controller's data-plane events, called synchronously
 * from read()/write() on secure systems.  The fault layer's
 * DetectionOracle implements this to shadow every block the controller
 * stores and to re-derive the MAC/tree verdict on every read; attaching
 * nothing costs nothing.
 */
class McObserver
{
  public:
    virtual ~McObserver() = default;

    /** Data block blk was (re-)encrypted and written, counter bumped. */
    virtual void onDataWrite(addr::BlockId blk) = 0;

    /**
     * Data block blk was read and decrypted.
     * @param memo_hit the L0 counter value came from the memo table.
     */
    virtual void onDataRead(addr::BlockId blk, bool memo_hit) = 0;

    /**
     * Recovery hook: re-derive the MAC/tree verdict for a read of blk
     * before it is served.  Only consulted when RMCC_RECOVERY is not off;
     * the default (pass) keeps plain observers working unchanged.
     */
    virtual McReadCheck checkRead(addr::BlockId blk, bool memo_hit)
    {
        (void)blk;
        (void)memo_hit;
        return {};
    }

    /**
     * Recovery hook: the controller re-fetched blk's path from memory
     * (stage-1 retry).  A fault model returns true when the re-fetch
     * observed different (healed) contents — i.e. the armed fault was
     * transient.
     */
    virtual bool onRefetch(addr::BlockId blk)
    {
        (void)blk;
        return false;
    }

    /**
     * Recovery hook: the controller rebuilt every counter on blk's path
     * by walking the integrity tree from the on-chip root (stage-2
     * reconstruction); stored node images revert to tree truth.
     */
    virtual void reconstructCounterPath(addr::BlockId blk) { (void)blk; }
};

/**
 * Outcome of the self-healing datapath for one read.  All-false when
 * RMCC_RECOVERY=off (the default) or when no fault was detected.
 */
struct McRecoveryOutcome
{
    bool detected = false;      //!< The observer's read check failed.
    bool recovered = false;     //!< Served after recovery actions.
    bool unrecoverable = false; //!< Exhausted all stages; NOT served.
    bool quarantined = false;   //!< A memo value was quarantined.
    bool reconstructed = false; //!< Counter path rebuilt via tree walk.
    bool degraded = false;      //!< Read served in degraded (memo-off) mode.
    std::uint8_t refetches = 0; //!< Stage-1 re-fetch attempts performed.
};

/** Core-visible outcome of one LLC-miss read. */
struct McReadResult
{
    double done_ns = 0.0;     //!< When the load's value is usable.
    bool counter_miss = false; //!< L0 counter block missed in the cache.
    bool memo_hit = false;     //!< L0 counter value was memoized.
    bool accelerated = false;  //!< Counter miss fully served by RMCC
                               //!< (L0 memo hit, L1 cached or memoized).
    McRecoveryOutcome recovery; //!< Self-healing outcome (off => all false).
};

/**
 * Secure memory controller model.
 *
 * Borrows the integrity tree, RMCC engine, and DRAM; they must outlive
 * the controller.  The counter cache holds L0 counter blocks and all
 * integrity-tree nodes, as in SGX.
 */
class SecureMc
{
  public:
    SecureMc(const McConfig &cfg, ctr::IntegrityTree &tree,
             core::RmccEngine &engine, dram::Ddr4 &dram);

    /** Serve an LLC-miss read of the data block at paddr. */
    McReadResult read(addr::Addr paddr, double now_ns);

    /**
     * Hint that a read of paddr may be next: software-prefetch the L0/L1
     * counter-store entries and counter-cache set rows that read(paddr)
     * would touch.  Pure — no stats, no cache state, no timing — so the
     * replay loop can issue it for the record after the current one and
     * overlap the counter store's DRAM-sized footprint with the rest of
     * the iteration.
     */
    void prefetchRead(addr::Addr paddr) const;

    /**
     * Serve an LLC writeback of the data block at paddr.  Writes are
     * posted; the returned time is only later than now_ns when the
     * two-outstanding-overflow cap stalls the core.
     */
    double write(addr::Addr paddr, double now_ns);

    /**
     * Named statistics (dram.* traffic categories, memo.*, ctr.*),
     * materialised from the controller's plain event counts: every count
     * that is non-zero, plus lat.read_sum_ns once a read has been served.
     * A name appears exactly when its event has happened, so diff()
     * against an earlier snapshot keeps a name whose window delta is 0.
     */
    util::StatSet stats() const;

    const cache::SetAssocCache &counterCache() const { return ctr_cache_; }
    const OverflowEngine &overflowEngine() const { return ovf_; }

    /**
     * Counter-cache lines currently holding level-`level` counter blocks
     * in [first_cb, first_cb + n_cb).  The per-tenant occupancy view: a
     * tenant's L0 counter blocks form one contiguous id range under arena
     * partitioning.  Full tag sweep; reporting-point use only.
     */
    std::uint64_t counterLinesResident(unsigned level,
                                       addr::CounterBlockId first_cb,
                                       std::uint64_t n_cb) const
    {
        if (level >= tree_.levels() || n_cb == 0)
            return 0;
        const addr::Addr lo =
            meta_[level].base + (first_cb << addr::kBlockShift);
        return ctr_cache_.countValidIn(lo, lo + (n_cb << addr::kBlockShift));
    }

    /**
     * Attach (or detach, with nullptr) a data-plane observer.  Only
     * meaningful on secure systems; the observer must outlive its
     * attachment.
     */
    void attachObserver(McObserver *observer) { observer_ = observer; }

    /**
     * Attach (or detach, with nullptr) the run's observability registry.
     * Off (null, the default) costs one branch per event; when attached
     * the controller feeds latency histograms (read, DRAM, MAC verify)
     * and rare-event instants (overflow, rebase).  Pure reads only — the
     * registry never alters timing or stats.
     */
    void attachObs(obs::Registry *obs) { obs_ = obs; }

    /** The self-healing policy state (stats, degraded mode). */
    const RecoveryPolicy &recovery() const { return recovery_; }

  private:
    /**
     * The data path's event counts, one plain integer each (counts_);
     * stats() names them.  chargeDram() takes its traffic category as a
     * Count.
     */
    enum Count : unsigned
    {
        kDramDataRead,
        kDramDataWrite,
        kDramCtrRead,
        kDramCtrWrite,
        kDramOvf0,
        kDramOvfHi,
        kDramTotal,
        kCtrWritebacks,
        kOvfCount,
        kOvfL0,
        kOvfHi,
        kRmccReadUpdates,
        kRmccMemoWriteUpdates,
        kMcReads,
        kMcWrites,
        kCtrL0Miss,
        kCtrHiMiss,
        kCtrL0Hit,
        kMemoLookupsOnMiss,
        kMemoHitOnMiss,
        kMemoGroupHitOnMiss,
        kMemoRecentHitOnMiss,
        kMemoHitAll,
        kMemoLookupsAll,
        kMemoAcceleratedMisses,
        kCounts
    };

    /** Per-level geometry snapshot taken from the integrity tree. */
    struct LevelMeta
    {
        addr::Addr base;        //!< Address of the level's block 0.
        addr::Addr end;         //!< One past the level's last block.
        unsigned coverage;      //!< Entities per counter block.
        double decode_ns;       //!< Scheme decode latency.
        //! Scheme's per-entity storage, for prefetchRead.
        ctr::EntityStorage storage;
    };

    /** One DRAM transfer with category accounting and epoch advance. */
    double chargeDram(addr::Addr a, bool is_write, double now_ns,
                      Count category);

    /**
     * Ensure a counter block is present in the counter cache; returns the
     * time its (decoded) content is available and whether it missed.
     */
    std::pair<double, bool> touchCounterBlock(unsigned level,
                                              addr::CounterBlockId cb,
                                              bool dirty, double now_ns);

    /** Handle a dirty counter-block eviction from the counter cache. */
    void counterWriteback(unsigned level, addr::CounterBlockId cb,
                          double now_ns);

    /** Charge an overflow's re-encryption of `blocks` covered entities. */
    double chargeOverflow(unsigned level, std::uint64_t first_entity,
                          std::uint64_t blocks, double now_ns);

    /**
     * Consult the engine for the level-`level` counter of `entity` that
     * a read uses, and charge a read-triggered relevel's traffic at once;
     * returns the memoization outcome.
     */
    core::MemoHit consultRead(unsigned level, std::uint64_t entity,
                              double now_ns);

    /**
     * Escalate a failed read check through the recovery stages (re-fetch,
     * tree-walk reconstruction, memo quarantine); updates res in place —
     * done_ns carries the full recovery latency, and
     * res.recovery.unrecoverable means the data was refused, not served.
     */
    void recoverRead(addr::BlockId blk, addr::Addr paddr,
                     const McReadCheck &first, McReadResult &res);

    //! Upper bound on integrity-tree depth; real trees over terabytes of
    //! protected memory need at most ~7 levels at 64:1 arity.
    static constexpr unsigned kMaxLevels = 16;

    McConfig cfg_;
    ctr::IntegrityTree &tree_;
    core::RmccEngine &engine_;
    dram::Ddr4 &dram_;
    cache::SetAssocCache ctr_cache_;
    OverflowEngine ovf_;
    std::uint64_t counts_[kCounts] = {};
    double read_sum_ns_ = 0.0; //!< Sum of read service times (lat.*).
    LevelMeta meta_[kMaxLevels] = {};
    McObserver *observer_ = nullptr;
    obs::Registry *obs_ = nullptr;
    RecoveryPolicy recovery_;
};

} // namespace rmcc::mc

#endif // RMCC_MC_SECURE_MC_HPP

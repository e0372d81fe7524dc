/**
 * @file
 * The RMCC engine: per-integrity-tree-level memoization tables, candidate
 * monitors, traffic budgets, and update policies, glued to the counter
 * tree (paper Fig 8).
 *
 * The paper's configuration memoizes two levels — one 128-entry table for
 * L0 counters (protecting data blocks) and one for L1 counters (protecting
 * L0 counter blocks).  Levels beyond the memoized ones use the baseline
 * +1 counter update.
 */
#ifndef RMCC_CORE_RMCC_ENGINE_HPP
#define RMCC_CORE_RMCC_ENGINE_HPP

#include <functional>
#include <memory>
#include <vector>

#include "core/budget.hpp"
#include "core/candidate_monitor.hpp"
#include "core/memo_table.hpp"
#include "core/update_policy.hpp"
#include "counters/tree.hpp"

namespace rmcc::core
{

/** Full RMCC configuration. */
struct RmccConfig
{
    MemoConfig memo;          //!< Per-level memoization table sizing.
    MonitorConfig monitor;    //!< Candidate monitor knobs.
    BudgetConfig budget;      //!< Per-level traffic budget (1% each).
    unsigned memo_levels = 2; //!< Levels with tables (L0 and L1).
    bool read_update = true;  //!< Relevel on read misses (Sec IV-C1).
    bool enabled = true;      //!< false = pure baseline (no RMCC).
};

/** Result of consulting RMCC for a read's counter use. */
struct ReadConsult
{
    MemoHit hit = MemoHit::Miss;         //!< Memoization outcome.
    bool releveled = false;              //!< Read-triggered update ran.
    std::uint64_t overhead_accesses = 0; //!< Budgeted extra traffic.
    std::uint64_t reencrypt_blocks = 0;  //!< Overflow re-encryption work.
};

/**
 * RMCC state machine over an integrity tree.
 */
class RmccEngine
{
  public:
    /** The tree is borrowed and must outlive the engine. */
    RmccEngine(const RmccConfig &cfg, ctr::IntegrityTree &tree);

    /**
     * A read needs the counter of entity idx at `level` to decrypt or
     * verify: look up the memoization table, feed the monitor, insert a
     * new group if the high-counter trigger fired, and possibly relevel
     * the counter (read-triggered update) when it missed.
     */
    ReadConsult onReadCounterUse(unsigned level, std::uint64_t idx);

    /**
     * A writeback updates the counter of entity idx at `level` using the
     * memoization-aware policy (or baseline above the memoized levels).
     */
    UpdateOutcome onWriteCounter(unsigned level, std::uint64_t idx);

    /**
     * Advance epoch accounting by one 64 B memory access; at epoch
     * boundaries the tables reselect their groups and the monitors
     * re-arm.
     */
    void onDramAccess()
    {
        if (!cfg_.enabled)
            return;
        for (auto &st : levels_)
            if (st->budget->onAccess())
                endEpoch(*st);
    }

    /** Memoization table of a level (level < memoLevels()). */
    MemoTable &table(unsigned level) { return *levels_[level]->table; }
    const MemoTable &table(unsigned level) const
    {
        return *levels_[level]->table;
    }

    /** Budget of a level. */
    const TrafficBudget &budget(unsigned level) const
    {
        return *levels_[level]->budget;
    }

    /** Number of levels with memoization tables. */
    unsigned memoLevels() const
    {
        return static_cast<unsigned>(levels_.size());
    }

    /** Whether RMCC is active at all. */
    bool enabled() const { return cfg_.enabled; }

    /** Groups inserted by the candidate monitor at a level. */
    std::uint64_t groupInsertions(unsigned level) const
    {
        return levels_[level]->insertions;
    }

    /** Read-triggered relevels performed at a level. */
    std::uint64_t readUpdates(unsigned level) const
    {
        return levels_[level]->policy->readUpdates();
    }

    /**
     * Average number of entities currently covered by each memoized
     * counter value at a level (paper Fig 15), counted by
     * CounterScheme::countInRanges over the merged memoized ranges.
     */
    double averageCoverage(unsigned level) const;

    /**
     * Quarantine a poisoned memoized value at `level` (recovery path) and
     * apply the security-register rollback rule: the candidate monitor's
     * high-counter trigger re-arms from the post-quarantine
     * Max-Counter-in-Table, so a poisoned entry can never have ratcheted
     * the monitor threshold upward (the Observed-System-Max cap of
     * Sec IV-D2 keeps group starts bounded by honest tree state either
     * way).
     * @return true when the value was actually memoized and dropped.
     */
    bool quarantineMemoValue(unsigned level, addr::CounterValue v);

    /**
     * Tenant-domain resolver: maps a (level, entity idx) pair to the
     * memo-table domain it belongs to.  When set (tenancy with strict
     * isolation), the engine selects that domain on each table before
     * every lookup/insert/update, so memoized counter values never cross
     * tenant boundaries.  Unset (default) leaves the tables in the
     * single-domain configuration — bit-identical to pre-tenancy runs.
     */
    using DomainResolver =
        std::function<std::uint32_t(unsigned level, std::uint64_t idx)>;
    void setDomainResolver(DomainResolver resolver)
    {
        domain_resolver_ = std::move(resolver);
    }

    /**
     * Set every level's budget pool — used by the lifetime-warmup
     * (precondition) phase, which emulates the budget accrued and spent
     * over the unsimulated earlier lifetime, then drains to zero so the
     * measured window runs at the steady 1% accrual.
     */
    void setBudgetPools(double accesses);

    /** The configuration in force. */
    const RmccConfig &config() const { return cfg_; }

  private:
    struct LevelState
    {
        std::unique_ptr<MemoTable> table;
        std::unique_ptr<CandidateMonitor> monitor;
        std::unique_ptr<TrafficBudget> budget;
        std::unique_ptr<UpdatePolicy> policy;
        std::uint64_t insertions = 0;
        //! One insertion per epoch: the reselection protects one new
        //! group per epoch (the 15-of-32 + newcomer rule, Sec IV-C3);
        //! unbounded insertion would make the value ladder climb so fast
        //! that every hot block rebases chasing it.
        bool inserted_this_epoch = false;
    };

    /** A level's epoch closed: reselect its groups, re-arm its monitor. */
    void endEpoch(LevelState &st);

    /** Apply the Observed-System-Max cap to a selected group start. */
    addr::CounterValue capStart(addr::CounterValue start) const;

    RmccConfig cfg_;
    ctr::IntegrityTree &tree_;
    std::vector<std::unique_ptr<LevelState>> levels_;
    DomainResolver domain_resolver_; //!< Null outside tenancy mode.
};

} // namespace rmcc::core

#endif // RMCC_CORE_RMCC_ENGINE_HPP

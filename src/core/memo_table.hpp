/**
 * @file
 * The RMCC memoization table (paper Fig 9).
 *
 * 128 entries organized as 16 Memoized Counter Value Groups of eight
 * consecutive counter values each.  Each group carries a use-frequency
 * counter (incremented whenever one of its values decrypts/verifies a
 * read).  The 16 most recently evicted groups keep shadow frequency
 * counters, like shadow tags in cache-replacement studies, and up to 16
 * most-recently-used individual counter values falling under evicted
 * groups stay memoized (Sec IV-C4).  At the end of each 1 M-access epoch
 * the 15 hottest of the 32 tracked groups (plus any group inserted during
 * the epoch, which is protected) are re-memoized.
 */
#ifndef RMCC_CORE_MEMO_TABLE_HPP
#define RMCC_CORE_MEMO_TABLE_HPP

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "address/types.hpp"

namespace rmcc::core
{

/** Sizing knobs of one memoization table. */
struct MemoConfig
{
    unsigned groups = 16;        //!< Memoized Counter Value Groups.
    unsigned group_size = 8;     //!< Consecutive values per group.
    unsigned shadow_groups = 16; //!< Recently evicted groups tracked.
    unsigned recent_values = 16; //!< MRU evicted-group values memoized.

    /**
     * Tenant key/counter domains sharing this table.  1 (default) is the
     * single-tenant paper configuration and is bit-identical to the
     * pre-tenancy table; >1 tags every group with its owning domain and
     * restricts lookups/updates to the active domain, so one tenant's
     * counter values can never decrypt under another tenant's groups.
     */
    std::uint32_t domains = 1;

    /**
     * Per-domain cap on valid groups (0 = uncapped).  Only meaningful
     * with domains > 1: a domain at its quota evicts its own LFU group
     * instead of another tenant's, bounding hot-tenant table takeover.
     */
    unsigned quota_groups = 0;

    /** Total memoized value entries (128 in the paper). */
    unsigned entries() const { return groups * group_size; }
};

/** Kind of memoization-table hit for a looked-up counter value. */
enum class MemoHit
{
    GroupHit,  //!< Value inside a memoized group.
    RecentHit, //!< Value among the MRU evicted-group values.
    Miss,      //!< Not memoized; AES must run from scratch.
};

/**
 * One level's memoization table.
 */
class MemoTable
{
  public:
    explicit MemoTable(const MemoConfig &cfg = MemoConfig());

    const MemoConfig &config() const { return cfg_; }

    /**
     * Select the tenant domain subsequent calls operate in.  A no-op in
     * the single-domain configuration (domain 0 is the only one); with
     * domains > 1 the engine calls this before every table operation
     * with the domain the touched counter entity belongs to.
     */
    void setActiveDomain(std::uint32_t d)
    {
        if (d != active_) {
            active_ = d;
            refreshLive();
        }
    }

    /** Domain subsequent operations act in. */
    std::uint32_t activeDomain() const { return active_; }

    /** Number of valid groups owned by one domain. */
    unsigned validGroupsOf(std::uint32_t d) const;

    /**
     * Look up the counter value used to decrypt/verify a read; updates
     * group/shadow frequencies and the MRU evicted-value list.
     */
    MemoHit lookupRead(addr::CounterValue v);

    /** Pure query: is v currently memoized (group or recent value)? */
    bool contains(addr::CounterValue v) const;

    /** Pure query: is v inside a memoized group? */
    bool inGroups(addr::CounterValue v) const;

    /**
     * Smallest memoized *group* value strictly greater than v — the
     * target of memoization-aware counter update.  The MRU evicted values
     * are deliberately excluded: their composition changes with every
     * access, so the update policy does not chase them (Sec IV-C4).
     */
    std::optional<addr::CounterValue>
    nearestAbove(addr::CounterValue v) const;

    /** Largest memoized group value (Max-Counter-in-Table); 0 if empty. */
    addr::CounterValue maxInTable() const;

    /** Number of valid groups. */
    unsigned validGroups() const;

    /**
     * Insert a new group starting at `start`, replacing the least
     * frequently used current group (which moves to the shadow list).
     * The inserted group is protected from the next end-of-epoch
     * reselection.
     */
    void insertGroup(addr::CounterValue start);

    /**
     * End-of-epoch reselection: keep the protected group (if any) plus
     * the hottest remaining groups out of current+shadow, then age all
     * frequency counters.
     */
    void endOfEpoch();

    /**
     * Quarantine a memoized counter value whose derived pad is suspect
     * (recovery path, Sec IV-D threat handling): invalidate the covering
     * group without shadow credit — a poisoned group must not win
     * re-insertion on its history — drop any MRU-recent copy, and refuse
     * lookups of v until the next end-of-epoch reselection rebuilds the
     * table from honestly recomputed pads.
     * @return true when v was actually memoized (something was dropped).
     */
    bool quarantineValue(addr::CounterValue v);

    /** Is v currently refused by quarantine? */
    bool isQuarantined(addr::CounterValue v) const;

    /** Values currently under quarantine (cleared at end of epoch). */
    unsigned quarantinedCount() const
    {
        return static_cast<unsigned>(quarantine_.size());
    }

    /** All current group start values (tests/diagnostics). */
    std::vector<addr::CounterValue> groupStarts() const;

    /**
     * Every counter value currently memoized: all values of all valid
     * groups plus the MRU evicted-group values.  Used by the fault
     * injector to aim memo-entry perturbations at live entries, and by
     * tests asserting table contents across overflow edges.
     */
    std::vector<addr::CounterValue> memoizedValues() const;

    /** Lifetime hit counters. */
    std::uint64_t groupHits() const { return group_hits_; }
    std::uint64_t recentHits() const { return recent_hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t lookups() const
    {
        return group_hits_ + recent_hits_ + misses_;
    }

  private:
    struct Group
    {
        addr::CounterValue start = 0;
        std::uint64_t freq = 0;
        bool valid = false;
        std::uint32_t domain = 0;
    };

    /** A counter value tagged with its owning domain. */
    struct DomainValue
    {
        addr::CounterValue v = 0;
        std::uint32_t domain = 0;
        bool operator==(const DomainValue &o) const
        {
            return v == o.v && domain == o.domain;
        }
    };

    /** Group (current) containing v in the active domain, or -1. */
    int findGroup(addr::CounterValue v) const;
    /** Shadow group containing v in the active domain, or -1. */
    int findShadow(addr::CounterValue v) const;

    /**
     * Rebuild live_groups_ and live_shadows_.  Every change to a slot's
     * validity, domain or position, and every domain switch, calls it;
     * frequency updates leave the lists as they are.
     */
    void refreshLive();

    MemoConfig cfg_;
    std::uint32_t active_ = 0;
    std::vector<Group> groups_;
    std::vector<Group> shadows_;
    //! Ascending indices of the slots of groups_ / shadows_ that are
    //! valid in the active domain.  Lookups walk only these: a table
    //! rarely holds more than a few live groups, and ascending order
    //! keeps the first match of a full scan.
    std::vector<std::uint32_t> live_groups_;
    std::vector<std::uint32_t> live_shadows_;
    std::deque<DomainValue> recent_; // front = most recent
    std::vector<DomainValue> quarantine_; // empty almost always
    std::optional<DomainValue> protected_start_;
    std::uint64_t group_hits_ = 0, recent_hits_ = 0, misses_ = 0;
};

} // namespace rmcc::core

#endif // RMCC_CORE_MEMO_TABLE_HPP

/**
 * @file
 * Whole-system configuration (paper Table I) with the two preset shapes
 * the paper uses: the gem5-like timing configuration and the Pintool-like
 * lifetime-characterization configuration.
 */
#ifndef RMCC_SIM_SYSTEM_CONFIG_HPP
#define RMCC_SIM_SYSTEM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "address/page_mapper.hpp"
#include "cache/hierarchy.hpp"
#include "core/rmcc_engine.hpp"
#include "counters/scheme.hpp"
#include "dram/config.hpp"
#include "mc/recovery.hpp"
#include "mc/secure_mc.hpp"
#include "sim/cpu_model.hpp"

namespace rmcc::sim
{

/** Simulator flavour. */
enum class SimMode
{
    Timing,     //!< gem5-like: CPU + DRAM timing, performance numbers.
    Functional, //!< Pintool-like: hit rates/traffic across lifetimes.
};

/**
 * Multi-tenant shape of a run.  Inert at the default (tenants == 1):
 * nothing in the rig changes and every emitted number is bit-identical
 * to the single-tenant simulator.  With tenants > 1 the trace is expected
 * to carry tenant-tagged virtual addresses (tenant id at bit tag_shift,
 * see tenancy::TenantAddressMap), and under strict isolation the rig
 * partitions physical frames into per-tenant arenas, tags memo-table
 * groups with the owning tenant's domain, and (in the oracle) derives
 * per-tenant data-plane keys.
 */
struct TenancyShape
{
    std::uint64_t tenants = 1;  //!< 1 = single tenant (inert default).
    unsigned tag_shift = 0;     //!< Tenant-id bit position in vaddrs.
    bool strict = true;         //!< Strict isolation (arenas + domains).
    unsigned memo_quota = 0;    //!< Per-tenant memo-group cap (0 = off).
};

/** Everything needed to run one experiment on one workload. */
struct SystemConfig
{
    SimMode mode = SimMode::Timing;

    // --- security configuration ----------------------------------------
    bool secure = true;                      //!< false: non-secure system.
    ctr::SchemeKind scheme = ctr::SchemeKind::Morphable;
    bool rmcc = false;                       //!< RMCC on top of the scheme.
    core::RmccConfig rmcc_cfg;               //!< RMCC knobs.

    // --- memory-side configuration -------------------------------------
    std::uint64_t counter_cache_bytes = 128 * 1024;
    unsigned counter_cache_assoc = 32;
    mc::LatencyConfig lat;                   //!< AES/CLMUL/decode latencies.
    dram::DramConfig dram;

    // --- CPU-side configuration ----------------------------------------
    CpuConfig cpu;
    cache::LevelConfig l1{64 * 1024, 8, 2.0};
    cache::LevelConfig l2{1024 * 1024, 8, 4.0};
    cache::LevelConfig llc{8ULL * 1024 * 1024, 16, 17.0};
    unsigned tlb_entries = 1536;
    unsigned tlb_assoc = 8;
    addr::PageMode page_mode = addr::PageMode::Huge2M;

    // --- experiment shape ----------------------------------------------
    std::uint64_t phys_bytes = 384ULL * 1024 * 1024; //!< Backing frames.
    std::size_t trace_records = 800 * 1000;          //!< Memory ops.
    std::size_t warmup_records = 400 * 1000;         //!< Pre-measurement.
    /**
     * Replay the trace once through the counter tree + RMCC engine (no
     * caches/DRAM) before measuring — the analogue of the paper's
     * 25 B-instruction atomic-mode integrity-tree warm-up, which lets the
     * self-reinforcing update converge counter state as the unsimulated
     * earlier lifetime would have.
     */
    bool precondition = true;
    /**
     * Overhead-budget balance granted to the warm-up replay, as a
     * fraction of trace length.  Finite: workload regions the prior
     * lifetime could not afford to relevel stay unconverged, so memo hit
     * rates stay below the 100% ceiling as in the paper.
     */
    double precondition_budget_fraction = 3.0;
    addr::CounterValue counter_init_mean = 100000;   //!< Random-init mean.
    std::uint64_t seed = 42;

    // --- multi-tenant shape (inert at the default) ----------------------
    TenancyShape tenancy;

    // --- fault recovery (off by default) --------------------------------
    mc::RecoveryConfig recovery; //!< Self-healing read path (docs/FAULTS.md).

    /** gem5-like preset (Table I). */
    static SystemConfig timingDefault();

    /**
     * Pintool-like preset (Sec III/V): 1 MB L2, 2 MB LLC, 32 KB counter
     * cache per thread, functional mode, longer trace.
     */
    static SystemConfig functionalDefault();

    /** Render the Table I rows for bench_table1_config. */
    std::string describe() const;
};

namespace detail
{

/**
 * The complete identity of a cell's configuration: every field of cfg,
 * nested configurations included, serialised in declaration order.  Two
 * configurations simulate the same cell exactly when their keys are
 * equal.  cellName hashes it; the front-end key and the tree-lease key
 * are projections of it.
 */
std::string cellKey(const SystemConfig &cfg);

} // namespace detail

} // namespace rmcc::sim

#endif // RMCC_SIM_SYSTEM_CONFIG_HPP

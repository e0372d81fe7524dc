#include "sim/system_config.hpp"

#include <charconv>
#include <sstream>
#include <type_traits>

namespace rmcc::sim
{

namespace
{

/** Append "name=value;" to a cell key; doubles round-trip exactly. */
template <class T>
void
put(std::string &key, const char *name, T v)
{
    key += name;
    key += '=';
    if constexpr (std::is_floating_point_v<T>) {
        char buf[32];
        key.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    } else if constexpr (std::is_enum_v<T>) {
        key += std::to_string(static_cast<long long>(v));
    } else {
        key += std::to_string(v);
    }
    key += ';';
}

void
putLevel(std::string &key, const char *name, const cache::LevelConfig &l)
{
    key += name;
    put(key, ".size_bytes", l.size_bytes);
    put(key, ".assoc", l.assoc);
    put(key, ".latency_ns", l.latency_ns);
}

// cellKey serialises every field of these structs.  A size change means
// a field was added or removed: key it in cellKey, then update the size
// here (and the perturbation list in CellKey.EveryFieldChangesTheKey).
static_assert(sizeof(core::MemoConfig) == 24);
static_assert(sizeof(core::MonitorConfig) == 16);
static_assert(sizeof(core::BudgetConfig) == 24);
static_assert(sizeof(core::RmccConfig) == 72);
static_assert(sizeof(mc::LatencyConfig) == 40);
static_assert(sizeof(dram::DramConfig) == 96);
static_assert(sizeof(CpuConfig) == 24);
static_assert(sizeof(cache::LevelConfig) == 24);
static_assert(sizeof(TenancyShape) == 24);
static_assert(sizeof(mc::RecoveryConfig) == 40);
static_assert(sizeof(SystemConfig) == 472);

} // namespace

SystemConfig
SystemConfig::timingDefault()
{
    SystemConfig cfg;
    cfg.mode = SimMode::Timing;
    return cfg;
}

SystemConfig
SystemConfig::functionalDefault()
{
    SystemConfig cfg;
    cfg.mode = SimMode::Functional;
    cfg.l2 = {1024 * 1024, 8, 4.0};
    cfg.llc = {2ULL * 1024 * 1024, 16, 17.0};
    cfg.counter_cache_bytes = 32 * 1024;
    cfg.trace_records = 1500 * 1000;
    cfg.warmup_records = 750 * 1000;
    return cfg;
}

std::string
SystemConfig::describe() const
{
    std::ostringstream out;
    out << "CPU: x86-like, 1 core, " << cpu.freq_ghz << " GHz, "
        << cpu.width << "-wide OoO, " << cpu.rob << " entry ROB\n";
    out << "D-TLB/I-TLB: " << tlb_entries << " entries\n";
    out << "L1 DCache: " << l1.size_bytes / 1024 << " KB " << l1.assoc
        << "-way, " << l1.latency_ns << " ns\n";
    out << "L2 Cache: " << l2.size_bytes / 1024 << " KB " << l2.assoc
        << "-way, " << l2.latency_ns << " ns\n";
    out << "L3 Cache: " << llc.size_bytes / (1024 * 1024) << " MB "
        << llc.assoc << "-way, " << llc.latency_ns << " ns\n";
    out << "Counter Cache in MC: " << counter_cache_bytes / 1024 << " KB "
        << counter_cache_assoc << "-way\n";
    out << "Counter scheme: " << ctr::schemeKindName(scheme)
        << (rmcc ? " + RMCC" : "") << "\n";
    out << "Decoding of Morphable Counters: 3 ns\n";
    out << "AES latency: " << lat.aes_ns << " ns\n";
    out << "Carry-less Multiplication Latency: " << lat.clmul_ns
        << " ns\n";
    out << "Memoization Table in MC: " << rmcc_cfg.memo.entries()
        << " entries for L0 counters, " << rmcc_cfg.memo.entries()
        << " entries for L1 counters\n";
    out << "Memory Data Rate: " << dram.data_rate_gtps << " GT/s\n";
    out << "tCL, tRCD, tRP: " << dram.tCL_ns << " ns\n";
    out << "tRFC: " << dram.tRFC_ns << " ns\n";
    out << "Row buffer policy: " << dram.row_timeout_ns << " ns timeout\n";
    out << "Read/Write queue: " << dram.queue_entries << " entries\n";
    out << "Channels, Ranks: " << dram.channels << ", " << dram.ranks
        << "\n";
    out << "Mapping Function: XOR-based (Skylake-like)\n";
    out << "Bank-level scheduling policy: FR-FCFS-Capped (cap "
        << dram.frfcfs_cap << ")\n";
    // Single-tenant runs keep the exact pre-tenancy table.
    if (tenancy.tenants > 1) {
        out << "Tenants: " << tenancy.tenants << ", "
            << (tenancy.strict ? "strict" : "shared")
            << " isolation, vaddr tag shift " << tenancy.tag_shift << "\n";
        if (tenancy.memo_quota != 0)
            out << "Per-tenant memo quota: " << tenancy.memo_quota
                << " groups\n";
    }
    return out.str();
}

std::string
detail::cellKey(const SystemConfig &cfg)
{
    std::string k;
    put(k, "mode", cfg.mode);
    put(k, "secure", cfg.secure);
    put(k, "scheme", cfg.scheme);
    put(k, "rmcc", cfg.rmcc);

    const core::RmccConfig &r = cfg.rmcc_cfg;
    put(k, "memo.groups", r.memo.groups);
    put(k, "memo.group_size", r.memo.group_size);
    put(k, "memo.shadow_groups", r.memo.shadow_groups);
    put(k, "memo.recent_values", r.memo.recent_values);
    put(k, "memo.domains", r.memo.domains);
    put(k, "memo.quota_groups", r.memo.quota_groups);
    put(k, "monitor.trigger_reads", r.monitor.trigger_reads);
    put(k, "monitor.coverage_goal", r.monitor.coverage_goal);
    put(k, "budget.fraction", r.budget.fraction);
    put(k, "budget.epoch_accesses", r.budget.epoch_accesses);
    put(k, "budget.initial_pool_accesses", r.budget.initial_pool_accesses);
    put(k, "memo_levels", r.memo_levels);
    put(k, "read_update", r.read_update);
    put(k, "enabled", r.enabled);

    put(k, "counter_cache_bytes", cfg.counter_cache_bytes);
    put(k, "counter_cache_assoc", cfg.counter_cache_assoc);
    put(k, "lat.aes_ns", cfg.lat.aes_ns);
    put(k, "lat.clmul_ns", cfg.lat.clmul_ns);
    put(k, "lat.mac_dot_ns", cfg.lat.mac_dot_ns);
    put(k, "lat.otp_xor_ns", cfg.lat.otp_xor_ns);
    put(k, "lat.ctr_cache_ns", cfg.lat.ctr_cache_ns);

    const dram::DramConfig &d = cfg.dram;
    put(k, "dram.channels", d.channels);
    put(k, "dram.ranks", d.ranks);
    put(k, "dram.banks_per_rank", d.banks_per_rank);
    put(k, "dram.row_bytes", d.row_bytes);
    put(k, "dram.data_rate_gtps", d.data_rate_gtps);
    put(k, "dram.bus_bytes", d.bus_bytes);
    put(k, "dram.tCL_ns", d.tCL_ns);
    put(k, "dram.tRCD_ns", d.tRCD_ns);
    put(k, "dram.tRP_ns", d.tRP_ns);
    put(k, "dram.tRFC_ns", d.tRFC_ns);
    put(k, "dram.tREFI_ns", d.tREFI_ns);
    put(k, "dram.row_timeout_ns", d.row_timeout_ns);
    put(k, "dram.queue_entries", d.queue_entries);
    put(k, "dram.frfcfs_cap", d.frfcfs_cap);

    put(k, "cpu.freq_ghz", cfg.cpu.freq_ghz);
    put(k, "cpu.width", cfg.cpu.width);
    put(k, "cpu.rob", cfg.cpu.rob);
    put(k, "cpu.mshrs", cfg.cpu.mshrs);
    putLevel(k, "l1", cfg.l1);
    putLevel(k, "l2", cfg.l2);
    putLevel(k, "llc", cfg.llc);
    put(k, "tlb_entries", cfg.tlb_entries);
    put(k, "tlb_assoc", cfg.tlb_assoc);
    put(k, "page_mode", cfg.page_mode);

    put(k, "phys_bytes", cfg.phys_bytes);
    put(k, "trace_records", cfg.trace_records);
    put(k, "warmup_records", cfg.warmup_records);
    put(k, "precondition", cfg.precondition);
    put(k, "precondition_budget_fraction", cfg.precondition_budget_fraction);
    put(k, "counter_init_mean", cfg.counter_init_mean);
    put(k, "seed", cfg.seed);

    put(k, "tenancy.tenants", cfg.tenancy.tenants);
    put(k, "tenancy.tag_shift", cfg.tenancy.tag_shift);
    put(k, "tenancy.strict", cfg.tenancy.strict);
    put(k, "tenancy.memo_quota", cfg.tenancy.memo_quota);

    const mc::RecoveryConfig &rc = cfg.recovery;
    put(k, "recovery.mode", rc.mode);
    put(k, "recovery.max_refetch", rc.max_refetch);
    put(k, "recovery.refetch_backoff_ns", rc.refetch_backoff_ns);
    put(k, "recovery.storm_window_reads", rc.storm_window_reads);
    put(k, "recovery.storm_threshold", rc.storm_threshold);
    put(k, "recovery.degraded_residency_reads",
        rc.degraded_residency_reads);
    return k;
}

} // namespace rmcc::sim

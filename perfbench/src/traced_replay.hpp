/**
 * @file
 * The traced replay: sim::runTiming rebuilt from the public component
 * classes (PageMapper, Tlb, Hierarchy, IntegrityTree, RmccEngine, Ddr4,
 * SecureMc, CpuModel), with a timer around every call into a layer.
 *
 * The benchmark checks that its SimResult is bit-identical to
 * runTiming's on the same trace and configuration, so this mirror cannot
 * drift from the real replay loop unnoticed.
 */
#ifndef PERFBENCH_TRACED_REPLAY_HPP
#define PERFBENCH_TRACED_REPLAY_HPP

#include <array>
#include <cstdint>
#include <string>

#include "dram/channel.hpp"
#include "sim/report.hpp"
#include "sim/system_config.hpp"
#include "trace/trace_source.hpp"

namespace perfbench
{

/** Layers timed call by call inside the traced replay. */
enum class Layer : unsigned
{
    Translate,     //!< PageMapper::translate (measured loop).
    Tlb,           //!< Tlb::access.
    Hierarchy,     //!< Hierarchy::access.
    CachePrefetch, //!< Hierarchy::prefetch.
    McPrefetch,    //!< SecureMc::prefetchRead.
    McRead,        //!< SecureMc::read.
    McWrite,       //!< SecureMc::write.
    Cpu,           //!< CpuModel advance/recordLongLatency/stallUntil/finish.
    Warmup,        //!< RmccEngine calls of the precondition pass.
    Count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** Raw host time of one traced replay, in timer ticks. */
struct Ledger
{
    std::array<std::uint64_t, kLayers> ticks{};
    std::array<std::uint64_t, kLayers> calls{};
    std::uint64_t rig_ticks = 0;          //!< Component construction.
    std::uint64_t precondition_ticks = 0; //!< Whole warm-up pass.
    std::uint64_t loop_ticks = 0;         //!< Whole measured loop.
    std::uint64_t total_ticks = 0;        //!< Whole replay.
    double total_ns = 0.0;                //!< Whole replay, steady clock.
    std::uint64_t records = 0;

    /** Nanoseconds per timer tick, from this replay's own two clocks. */
    double nsPerTick() const
    {
        return total_ticks > 0 ? total_ns / static_cast<double>(total_ticks)
                               : 0.0;
    }

    /** Add another replay's ledger (for aggregates over replays). */
    void add(const Ledger &o);
};

/** Outcome of one traced replay. */
struct TracedRun
{
    rmcc::sim::SimResult result;
    rmcc::dram::ChannelStats dram; //!< Whole-run DRAM channel totals.
    Ledger ledger;
};

/**
 * Replay `trace` exactly as sim::runTiming does, timing each layer call.
 * Only in-RAM, single-tenant replays are supported; anything else throws.
 */
TracedRun tracedTiming(const std::string &workload,
                       const rmcc::trace::TraceSource &trace,
                       const rmcc::sim::SystemConfig &cfg);

/** Cost of one empty timer span, in ticks (median of several batches). */
double emptySpanTicks();

} // namespace perfbench

#endif // PERFBENCH_TRACED_REPLAY_HPP

/**
 * @file
 * Internal: the simulators' front end (page mapping, TLB, L1/L2/LLC),
 * recorded once per (trace, front-end config) and replayed by every cell.
 *
 * In the trace-driven model a record's TLB and cache outcome depends only
 * on the trace and on the few SystemConfig fields FrontEndConfig holds:
 * page mode, physical size, mapper seed, tenant partitioning, and the
 * cache and TLB geometry.  It does not depend on the counter scheme,
 * RMCC, latencies or the counter cache, so the non-secure, SC-64,
 * Morphable and RMCC cells of one trace all see the same stream.  One
 * pass (recordFrontEnd) runs its own PageMapper, Tlb and Hierarchy over
 * the trace and records every outcome, with the physical block of every
 * memory access; the recording is memoised on the trace
 * (TraceSource::memo), and each cell replays it (FrontEndReplay) instead
 * of translating and running the caches again.  recordFrontEnd is the
 * simulators' only caller of PageMapper::translate.
 */
#ifndef RMCC_SIM_FRONT_END_HPP
#define RMCC_SIM_FRONT_END_HPP

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "address/page_mapper.hpp"
#include "sim/system_config.hpp"
#include "trace/trace_source.hpp"
#include "util/stats.hpp"

namespace rmcc::sim::detail
{

/**
 * The SystemConfig fields a record's TLB and cache outcome depends on: a
 * projection of cellKey(cfg), so cells with equal cell keys share a
 * front-end recording.
 */
struct FrontEndConfig
{
    addr::PageMode page_mode = addr::PageMode::Huge2M;
    std::uint64_t phys_bytes = 0;
    std::uint64_t mapper_seed = 0;
    //! Per-tenant frame arenas: secure && strict && tenants > 1.  When
    //! false, tag_shift and tenants are 0 (they do not affect mapping).
    bool tenant_arenas = false;
    unsigned tag_shift = 0;
    std::uint64_t tenants = 0;
    std::uint64_t l1_bytes = 0, l2_bytes = 0, llc_bytes = 0;
    unsigned l1_assoc = 0, l2_assoc = 0, llc_assoc = 0;
    unsigned tlb_entries = 0, tlb_assoc = 0;

    bool operator==(const FrontEndConfig &) const = default;
};

/**
 * The front-end key of cfg.  Throws std::invalid_argument for a
 * phys_bytes above 2^32 blocks: the recording stores physical block
 * numbers in 32 bits.
 */
FrontEndConfig frontEndConfig(const SystemConfig &cfg);

/**
 * The page mapper of a front end: recordFrontEnd's, and the one SimRig
 * reads its strict-tenancy arena size from.
 */
addr::PageMapper makePageMapper(const FrontEndConfig &fe);

/**
 * Every record's front-end outcome, in trace order: one byte per record
 * (hit level, writeback flag, TLB-miss flag), the 32-bit physical block
 * number of each LLC miss, and that of each memory writeback's victim.
 * Immutable once built.
 */
struct FrontEndRecording
{
    static constexpr std::uint8_t kUpperHit = 0; //!< L1 or L2 hit.
    static constexpr std::uint8_t kLlcHit = 1;
    static constexpr std::uint8_t kLlcMiss = 2;
    static constexpr std::uint8_t kLevelMask = 3;
    static constexpr std::uint8_t kWriteback = 4;
    static constexpr std::uint8_t kTlbMiss = 8;

    std::vector<std::uint8_t> codes;
    std::vector<std::uint32_t> misses;
    std::vector<std::uint32_t> victims;
};

/**
 * The one recording builder: replay trace through a fresh PageMapper,
 * Tlb and Hierarchy built from fe.  Polls the cell's cancellation scope.
 */
FrontEndRecording recordFrontEnd(const trace::TraceSource &trace,
                                 const FrontEndConfig &fe);

/**
 * cfg's recording of trace, built on first use and memoised on the trace
 * (concurrent callers for one key share one build).
 */
std::shared_ptr<const FrontEndRecording>
frontEndRecording(const trace::TraceSource &trace, const SystemConfig &cfg);

/** One record's replayed front-end outcome. */
struct FrontEndOutcome
{
    bool tlb_miss = false;
    bool llc_hit = false;   //!< Served by the LLC (L1 and L2 missed).
    bool llc_miss = false;  //!< Goes to memory...
    addr::Addr miss = 0;    //!< ...from this line address.
    bool writeback = false; //!< A dirty LLC victim goes to memory...
    addr::Addr victim = 0;  //!< ...at this line address.
};

/**
 * A replay loop's front-end event counts, kept as plain integers.
 * reportSince() adds the window since `earlier` to a result's stats
 * under tlb.misses, sim.llc_misses and sim.llc_writebacks.  A name is
 * left out when its count is 0 over the whole run, as a StatSet leaves
 * out a counter that was never written.
 */
struct FrontEndCounts
{
    std::uint64_t tlb_misses = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t llc_writebacks = 0;

    void reportSince(const FrontEndCounts &earlier,
                     util::StatSet &stats) const;
};

/** A sequential read of a recording, counting LLC lookups and misses. */
class FrontEndReplay
{
  public:
    explicit FrontEndReplay(const FrontEndRecording &rec)
        : codes_(rec.codes.data()), misses_(rec.misses.data()),
          misses_end_(misses_ + rec.misses.size()),
          victims_(rec.victims.data())
    {
    }

    /** The next record's outcome, in trace order. */
    FrontEndOutcome next()
    {
        using R = FrontEndRecording;
        const std::uint8_t code = *codes_++;
        const std::uint8_t level = code & R::kLevelMask;
        FrontEndOutcome o;
        o.tlb_miss = (code & R::kTlbMiss) != 0;
        o.llc_hit = level == R::kLlcHit;
        o.llc_miss = level == R::kLlcMiss;
        llc_accesses_ += level != R::kUpperHit;
        llc_misses_ += o.llc_miss;
        if (o.llc_miss)
            o.miss = addr::blockBase(*misses_++);
        if ((code & R::kWriteback) != 0) {
            o.writeback = true;
            o.victim = addr::blockBase(*victims_++);
        }
        return o;
    }

    /**
     * Whether the next record is quiet: code 0, an L1/L2 hit with no TLB
     * miss and no writeback.  A quiet record only advances the core.
     */
    bool quietNext() const { return *codes_ == 0; }

    /**
     * Skip the quiet records ahead, at most max (which must not pass the
     * recording's end); returns how many.
     */
    std::size_t skipQuiet(std::size_t max) { return skipUntil(0xff, max); }

    /**
     * Skip the records ahead that send nothing to memory, at most max
     * (which must not pass the recording's end); returns how many: stops
     * at the first record with an LLC miss or a writeback.  The skipped
     * records, LLC hits among them, never reach next(), so they are left
     * out of llcAccesses(): for replays that read neither tally, such as
     * the warm-up.
     */
    std::size_t skipToMemoryEvent(std::size_t max)
    {
        using R = FrontEndRecording;
        // The level bits then read as "goes to memory" only if no other
        // level code carries kLlcMiss's bit.
        static_assert(((R::kUpperHit | R::kLlcHit) & R::kLlcMiss) == 0);
        return skipUntil(R::kLlcMiss | R::kWriteback, max);
    }

    /**
     * Whether an LLC miss lies ahead of the replay; if so, its line
     * address goes to *paddr.  The lookahead the replays prefetch for.
     */
    bool nextMiss(addr::Addr *paddr) const
    {
        if (misses_ == misses_end_)
            return false;
        *paddr = addr::blockBase(*misses_);
        return true;
    }

    /** LLC lookups and misses replayed so far (the llc.* obs probes). */
    std::uint64_t llcAccesses() const { return llc_accesses_; }
    std::uint64_t llcMisses() const { return llc_misses_; }

  private:
    /**
     * Advance past the codes ahead that have no bit of mask set, at most
     * max; returns how many.  Scans eight codes per load while eight
     * remain before max, then one at a time, so it never reads past
     * codes_ + max.
     */
    // rmcc-lint: hot-path
    std::size_t skipUntil(std::uint8_t mask, std::size_t max)
    {
        const std::uint64_t masks = 0x0101010101010101ULL * mask;
        const std::uint8_t *p = codes_;
        const std::uint8_t *const end = codes_ + max;
        while (end - p >= 8) {
            std::uint64_t word;
            std::memcpy(&word, p, sizeof word);
            if (const std::uint64_t hits = word & masks) {
                // Stop at the first code with a mask bit, in memory order.
                const int skip_bits =
                    std::endian::native == std::endian::little
                        ? std::countr_zero(hits)
                        : std::countl_zero(hits);
                p += skip_bits / 8;
                break;
            }
            p += 8;
        }
        // The tail of fewer than eight codes (a no-op after a break).
        while (p != end && (*p & mask) == 0)
            ++p;
        const auto n = static_cast<std::size_t>(p - codes_);
        codes_ = p;
        return n;
    }

    const std::uint8_t *codes_;
    const std::uint32_t *misses_;
    const std::uint32_t *misses_end_;
    const std::uint32_t *victims_;
    std::uint64_t llc_accesses_ = 0, llc_misses_ = 0;
};

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_FRONT_END_HPP

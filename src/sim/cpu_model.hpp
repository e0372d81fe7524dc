/**
 * @file
 * Trace-driven out-of-order CPU proxy (the role gem5's O3 core plays in
 * the paper): 4-wide retire from a 192-entry window, with memory-level
 * parallelism limited by the window and by MSHRs.
 *
 * The model retires instructions at the pipeline width; long-latency
 * memory operations enter an outstanding queue and overlap until either
 * (a) the reorder window fills — the clock then waits for the oldest
 * outstanding completion — or (b) MSHRs run out.
 *
 * Runs of quiet records keep the clock in whole ticks of 2^-16 ns when
 * it and the time per instruction are whole ticks (every Table I
 * config: 1/(3.2 GHz x 4) = 5/64 ns), where every partial sum of the
 * double clock is exact, so both loops make the same transitions bit for
 * bit (DESIGN.md Sec 4.6).
 */
#ifndef RMCC_SIM_CPU_MODEL_HPP
#define RMCC_SIM_CPU_MODEL_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace rmcc::sim
{

/** Core parameters (Table I). */
struct CpuConfig
{
    double freq_ghz = 3.2;  //!< Core clock.
    unsigned width = 4;     //!< Retire width (4-wide OoO).
    unsigned rob = 192;     //!< Reorder-buffer entries.
    unsigned mshrs = 16;    //!< Outstanding long-latency memory ops.
};

/**
 * Limited-window OoO timing proxy.
 */
class CpuModel
{
  public:
    explicit CpuModel(const CpuConfig &cfg = CpuConfig());

    /**
     * Account for inst_gap non-memory instructions plus the memory
     * instruction itself, then return the memory op's issue time (ns).
     *
     * The retirement accounting is batched across the in-flight MSHR
     * entries: the oldest outstanding op gates every possible state
     * change (window pressure, MSHR pressure, and the FIFO ready-prefix
     * drain all trigger at head), so advance() compares the clock and
     * instruction count against two cached head gates and skips the
     * drain scan entirely until one crosses.  Most records touch no
     * entry at all; the full scan runs once per retirement batch, not
     * once per record — with identical state transitions either way.
     */
    double advance(std::uint32_t inst_gap)
    {
        insts_ += inst_gap + 1;
        now_ns_ += static_cast<double>(inst_gap + 1) * ns_per_inst_;
        if (now_ns_ >= gate_done_ns_ || insts_ >= gate_insts_)
            enforceLimits();
        return now_ns_;
    }

    /**
     * advance() over every record of recs[0..n), without issue times: a
     * run of quiet records (L1/L2 hits with no TLB miss and no
     * writeback), which only move the core.  The clock and instruction
     * count stay in registers between gate crossings, and each record
     * makes advance()'s exact transitions: in whole ticks while the
     * clock allows it (advanceTicks), as doubles otherwise.
     */
    void advanceRun(const trace::Record *recs, std::size_t n)
    {
        if (n >= kMinTickRun) {
            const std::size_t done = advanceTicks(recs, n);
            recs += done;
            n -= done;
        }
        double now = now_ns_;
        std::uint64_t insts = insts_;
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t step = recs[k].inst_gap + 1;
            insts += step;
            now += static_cast<double>(step) * ns_per_inst_;
            if (now >= gate_done_ns_ || insts >= gate_insts_) {
                now_ns_ = now;
                insts_ = insts;
                enforceLimits();
                now = now_ns_;
            }
        }
        now_ns_ = now;
        insts_ = insts;
    }

    /**
     * Register a long-latency operation (LLC hit or memory access) that
     * completes at done_ns; it occupies the window until then.
     */
    void recordLongLatency(double done_ns);

    /** Force the clock to at least t_ns (e.g. MC overflow stalls). */
    void stallUntil(double t_ns);

    /** Drain all outstanding operations; returns the final time. */
    double finish();

    /** Current retire-time estimate (ns). */
    double now() const { return now_ns_; }

    /** Instructions accounted so far. */
    std::uint64_t instructions() const { return insts_; }

    /** Long-latency operations not yet retired. */
    std::size_t outstanding() const { return count_; }

  private:
    //! Clock ticks per ns on the whole-tick path (2^16).
    static constexpr double kTicksPerNs = 65536.0;
    //! Shorter runs take the double loop: on them the whole-tick path's
    //! entry and exit conversions cost more than they save.
    static constexpr std::size_t kMinTickRun = 16;
    //! Records summed per gate test on the whole-tick path.
    static constexpr std::size_t kTickBlock = 4;

    struct Outstanding
    {
        double done_ns;
        std::uint64_t inst_at_issue;
    };

    /** Apply window/MSHR limits at the current instruction count. */
    void enforceLimits();

    /** Re-derive the head gates after head_ or count_ changed. */
    void refreshGates();

    /**
     * advanceRun() in whole ticks over a prefix of recs[0..n); returns
     * its length: 0 when the clock is not a whole tick count below 2^52
     * (or n is too long to stay below 2^53), short of n when a stall
     * leaves whole ticks.  The double loop takes the rest.
     */
    std::size_t advanceTicks(const trace::Record *recs, std::size_t n);

    /** Double the ring capacity, re-linearizing from head_. */
    void grow();

    CpuConfig cfg_;
    double ns_per_inst_;
    //! ns_per_inst_ in ticks, and the longest run whose clock stays
    //! below 2^53 ticks from a start below 2^52; both 0 (no whole-tick
    //! path) when ns_per_inst_ is not a whole tick count.
    std::uint64_t ticks_per_inst_ = 0;
    std::size_t max_tick_run_ = 0;
    double now_ns_ = 0.0;
    std::uint64_t insts_ = 0;
    //! Outstanding ops in a power-of-two ring (oldest at head_).  The
    //! deque this replaces paid a segment-map indirection on every
    //! enforceLimits() call, millions of times per replay; a flat ring
    //! keeps the whole drain scan inside one small allocation.
    std::vector<Outstanding> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0; //!< capacity - 1 (capacity is a power of two).
    //! Batched-retirement gates: nothing can retire before the clock
    //! reaches the head op's completion (gate_done_ns_) or the
    //! instruction count reaches head-issue + rob (gate_insts_).  MSHR
    //! pressure sets gate_insts_ to 0, and an empty queue parks both
    //! gates where they cannot cross, so one test of two gates covers
    //! all three limits.
    double gate_done_ns_ = 0.0;
    std::uint64_t gate_insts_ = 0;
};

} // namespace rmcc::sim

#endif // RMCC_SIM_CPU_MODEL_HPP

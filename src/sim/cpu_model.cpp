#include "sim/cpu_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace rmcc::sim
{

namespace
{

//! Tick counts below this are exact doubles (the significand has 53
//! bits), as is every clock of the whole-tick path.
constexpr double kExactTicks = 9007199254740992.0; // 2^53

/**
 * The first whole tick count at or after done_ns, ceil(done_ns * 2^16):
 * a tick clock t has reached done_ns exactly when t >= this.  The tick
 * clock stays below 2^53, so a gate at or above it (or a NaN) is never
 * reached and returns the largest count.
 */
std::uint64_t
tickGate(double done_ns)
{
    const double x = done_ns * 65536.0; // exact: a power-of-two scale
    if (!(x < kExactTicks))
        return std::numeric_limits<std::uint64_t>::max();
    if (x <= 0.0)
        return 0;
    const auto whole = static_cast<std::uint64_t>(x); // truncates
    return whole + (static_cast<double>(whole) < x ? 1 : 0);
}

/** Whether t_ns is a whole tick count below 2^52; if so, *ticks = it. */
bool
wholeTicksBelow2p52(double t_ns, std::uint64_t *ticks)
{
    const double x = t_ns * 65536.0; // exact: a power-of-two scale
    if (!(x >= 0.0 && x < kExactTicks / 2))
        return false;
    *ticks = static_cast<std::uint64_t>(x); // truncates
    return static_cast<double>(*ticks) == x;
}

} // namespace

CpuModel::CpuModel(const CpuConfig &cfg)
    : cfg_(cfg),
      ns_per_inst_(1.0 / (cfg.freq_ghz * cfg.width))
{
    // MSHR pressure bounds steady-state occupancy near cfg.mshrs; start
    // one doubling above it so growth is a cold-path rarity.
    ring_.resize(std::bit_ceil(std::max<std::size_t>(cfg.mshrs + 1, 8)));
    mask_ = ring_.size() - 1;
    refreshGates();

    // A step is at most 2^16 instructions (the trace's 16-bit gap + 1),
    // so a run of max_tick_run_ steps adds at most 2^52 ticks, and each
    // step's double product is exact.
    const double per_inst = ns_per_inst_ * kTicksPerNs;
    if (per_inst >= 1.0 && per_inst < kExactTicks / 65536.0 &&
        per_inst == std::floor(per_inst)) {
        ticks_per_inst_ = static_cast<std::uint64_t>(per_inst);
        max_tick_run_ = static_cast<std::size_t>(
            (std::uint64_t{1} << 52) / (ticks_per_inst_ << 16));
    }
}

void
CpuModel::grow()
{
    std::vector<Outstanding> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i)
        bigger[i] = ring_[(head_ + i) & mask_];
    ring_ = std::move(bigger);
    head_ = 0;
    mask_ = ring_.size() - 1;
}

void
CpuModel::refreshGates()
{
    if (count_ == 0) {
        // Empty queue: nothing to retire, so no gate may cross.
        gate_done_ns_ = std::numeric_limits<double>::infinity();
        gate_insts_ = std::numeric_limits<std::uint64_t>::max();
        return;
    }
    const Outstanding &oldest = ring_[head_];
    gate_done_ns_ = oldest.done_ns;
    // MSHR pressure retires at the very next record.
    gate_insts_ = count_ >= cfg_.mshrs ? 0 : oldest.inst_at_issue + cfg_.rob;
}

// rmcc-lint: hot-path
std::size_t
CpuModel::advanceTicks(const trace::Record *recs, std::size_t n)
{
    std::uint64_t t = 0;
    if (n > max_tick_run_ || !wholeTicksBelow2p52(now_ns_, &t))
        return 0;
    // Clock t and ns t / 2^16 are the same number here: every double
    // partial sum of the per-record loop is exact, so integer adds and
    // the tick gate make its transitions bit for bit.
    std::uint64_t insts = insts_;
    std::uint64_t gate_ticks = tickGate(gate_done_ns_);
    std::size_t k = 0;
    while (k < n) {
        // kTickBlock records at a time while no gate falls among them:
        // the clock and instruction count only grow, so a block whose
        // end crosses no gate has no record that does.
        while (n - k >= kTickBlock) {
            __builtin_prefetch(recs + k + 64);
            std::uint64_t steps = kTickBlock;
            for (std::size_t j = 0; j < kTickBlock; ++j)
                steps += recs[k + j].inst_gap;
            const std::uint64_t dt = steps * ticks_per_inst_;
            if (t + dt >= gate_ticks || insts + steps >= gate_insts_)
                break;
            t += dt;
            insts += steps;
            k += kTickBlock;
        }
        if (k == n)
            break;
        // One record, as advance() makes it.
        const std::uint64_t step = recs[k].inst_gap + 1;
        insts += step;
        t += step * ticks_per_inst_;
        ++k;
        if (t >= gate_ticks || insts >= gate_insts_) {
            now_ns_ = static_cast<double>(t) / kTicksPerNs;
            insts_ = insts;
            enforceLimits();
            // A stall to a completion time may leave whole ticks; from
            // a whole tick count below 2^52 the rest of the run stays
            // below 2^53.
            if (!wholeTicksBelow2p52(now_ns_, &t))
                return k;
            gate_ticks = tickGate(gate_done_ns_);
        }
    }
    now_ns_ = static_cast<double>(t) / kTicksPerNs;
    insts_ = insts;
    return n;
}

void
CpuModel::enforceLimits()
{
    // Window limit: an op older than (insts_ - rob) must have retired for
    // the current instruction to even enter the window.
    while (count_ != 0) {
        const Outstanding &oldest = ring_[head_];
        const bool window_full =
            insts_ - oldest.inst_at_issue >= cfg_.rob;
        const bool mshrs_full = count_ >= cfg_.mshrs;
        if (!window_full && !mshrs_full)
            break;
        now_ns_ = std::max(now_ns_, oldest.done_ns);
        head_ = (head_ + 1) & mask_;
        --count_;
    }
    // Everything already complete leaves in one batch: scan the ready
    // prefix, then retire it with a single head/count adjustment.
    std::size_t ready = 0;
    while (ready < count_ &&
           ring_[(head_ + ready) & mask_].done_ns <= now_ns_)
        ++ready;
    head_ = (head_ + ready) & mask_;
    count_ -= ready;
    refreshGates();
}

void
CpuModel::recordLongLatency(double done_ns)
{
    if (count_ == ring_.size())
        grow();
    ring_[(head_ + count_) & mask_] = {done_ns, insts_};
    ++count_;
    // A new head defines the gates, and MSHR pressure closes them.
    if (count_ == 1 || count_ >= cfg_.mshrs)
        refreshGates();
}

void
CpuModel::stallUntil(double t_ns)
{
    now_ns_ = std::max(now_ns_, t_ns);
}

double
CpuModel::finish()
{
    for (std::size_t i = 0; i < count_; ++i)
        now_ns_ = std::max(now_ns_, ring_[(head_ + i) & mask_].done_ns);
    head_ = 0;
    count_ = 0;
    refreshGates();
    return now_ns_;
}

} // namespace rmcc::sim

/**
 * @file
 * Host-speed probe and reference-time clock.
 *
 * The benchmark runs on shared hosts whose speed drifts by half within
 * minutes, as other tenants load the shared L3, memory and SMT siblings
 * (see perfbench/README.md, "Noise").  A fixed probe kernel, which lives
 * in the benchmark and not in the simulator, runs right before and right
 * after every timed unit of work.  RefClock divides each unit's time by
 * the mean of the two probes around it, and scales the median ratio by
 * kRefProbeS: the result is the unit's time on a reference host, one on
 * which a probe pass takes kRefProbeS.
 */
#ifndef PERFBENCH_HOST_PROBE_HPP
#define PERFBENCH_HOST_PROBE_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * Probe seconds on the reference host.  Every reported time is relative
 * to it, so it must never change.  It is about the fastest probe pass
 * seen on a 4-vCPU Xeon (Sapphire Rapids) VM.
 */
constexpr double kRefProbeS = 0.03;

/** CPU seconds the process has used, hypervisor steal excluded. */
double cpuNow();

/** Seconds on the steady wall clock, from an arbitrary origin. */
double wallNow();

/**
 * The probe: a 16-way set-associative cache model with 1 MB of tags, and
 * a 2 MB table it updates on every access, fed by a fixed address
 * stream.  Like the simulator, it is bound by dependent loads and
 * branches over a working set that lives in the L2 and the shared L3.
 * (A 48 MB version tracked the replays less well: see the README.)
 */
class HostProbe
{
  public:
    HostProbe();

    /** One probe pass; returns its CPU seconds. */
    double run();

    /** Resident bytes of the probe's tables. */
    std::size_t bytes() const;

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> data_;
    std::uint64_t sink_ = 0;
};

/**
 * Times units of work between probe passes.  The probe after one unit is
 * the probe before the next, so the units of one clock should follow each
 * other closely.
 */
class RefClock
{
  public:
    /** `wall` times units on the wall clock (for multi-threaded units). */
    explicit RefClock(HostProbe &probe, bool wall = false)
        : probe_(probe), wall_(wall)
    {
    }

    /** Run and time f(); returns its raw seconds. */
    template <class F> double time(F &&f)
    {
        if (probes_.empty())
            probes_.push_back(probe_.run());
        const double t0 = now();
        f();
        const double t = now() - t0;
        probes_.push_back(probe_.run());
        const double k =
            0.5 * (probes_[probes_.size() - 2] + probes_.back());
        raw_.push_back(t);
        ratios_.push_back(t / k);
        return t;
    }

    /** Units timed so far. */
    std::size_t units() const { return raw_.size(); }

    /** Median unit time on the reference host, in seconds. */
    double refSeconds() const;

    /** Median raw unit time, in seconds. */
    double rawSeconds() const;

    /** Median probe pass, in CPU seconds. */
    double probeSeconds() const;

  private:
    double now() const { return wall_ ? wallNow() : cpuNow(); }

    HostProbe &probe_;
    bool wall_;
    std::vector<double> probes_;
    std::vector<double> raw_;
    std::vector<double> ratios_;
};

/** Median of v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HPP

#include "host_probe.hpp"

#include <algorithm>
#include <ctime>

namespace perfbench
{

namespace
{

constexpr std::size_t kSets = std::size_t(1) << 13;
constexpr std::size_t kWays = 16;
constexpr std::size_t kDataWords = std::size_t(1) << 19;
constexpr std::uint32_t kAccesses = 3000000;

} // namespace

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

HostProbe::HostProbe() : tags_(kSets * kWays, 0), data_(kDataWords, 0)
{
    run(); // first touch of the tables, outside any timed pass
}

double
HostProbe::run()
{
    // Every pass replays the same stream, so the n-th pass of one process
    // does the same work as the n-th pass of any other.
    const double t0 = cpuNow();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, hits = 0, addr = 0;
    for (std::uint32_t i = 0; i < kAccesses; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Three sequential lines in four, then a jump anywhere.
        addr = (x & 3) ? addr + 64 : (x >> 20);
        const std::uint64_t line = addr >> 6;
        const std::size_t set = (line & (kSets - 1)) * kWays;
        std::size_t w = 0;
        while (w < kWays && tags_[set + w] != line)
            ++w;
        if (w < kWays)
            ++hits;
        else
            tags_[set + (x >> 60)] = line;
        data_[line & (kDataWords - 1)] += static_cast<std::uint32_t>(hits);
    }
    const double s = cpuNow() - t0;
    sink_ += hits;
    return s;
}

std::size_t
HostProbe::bytes() const
{
    return tags_.size() * sizeof(tags_[0]) + data_.size() * sizeof(data_[0]);
}

double
RefClock::refSeconds() const
{
    return median(ratios_) * kRefProbeS;
}

double
RefClock::rawSeconds() const
{
    return median(raw_);
}

double
RefClock::probeSeconds() const
{
    return median(probes_);
}

} // namespace perfbench

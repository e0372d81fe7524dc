#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/zipf.hpp"

namespace rmcc::util
{

namespace
{

/** SplitMix64 step used to expand the seed into xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    // Guard against the all-zero state, which is a fixed point.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint32_t
Rng::nextGeometric(double mean)
{
    if (mean <= 0.0)
        return 0;
    const double u = 1.0 - nextDouble(); // in (0, 1]
    const double v = -mean * std::log(u);
    return static_cast<std::uint32_t>(std::min(v, 1.0e9));
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    ZipfSampler sampler(n, s);
    return sampler(*this);
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace rmcc::util

/**
 * @file
 * Deterministic pseudo-random number generation for simulation.
 *
 * All stochastic behaviour in the repository (workload generation, counter
 * initialization, replacement tie-breaking) flows through Rng so that every
 * experiment is reproducible from a single 64-bit seed.  The generator is
 * xoshiro256** (Blackman & Vigna), which is fast, has a 2^256-1 period, and
 * passes BigCrush; it is *not* used for any cryptographic purpose (the
 * crypto module has real AES for that).
 */
#ifndef RMCC_UTIL_RNG_HPP
#define RMCC_UTIL_RNG_HPP

#include <algorithm>
#include <cstdint>

namespace rmcc::util
{

/**
 * xoshiro256** PRNG with SplitMix64 seeding.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire rejection; bound > 0. */
    std::uint64_t nextBelow(std::uint64_t bound)
    {
        // Lemire's multiply-shift with rejection for exact uniformity.
        if (bound == 0)
            return 0;
        while (true) {
            const std::uint64_t x = next();
            const unsigned __int128 m =
                static_cast<unsigned __int128>(x) * bound;
            const std::uint64_t lo = static_cast<std::uint64_t>(m);
            if (lo >= bound ||
                lo >= static_cast<std::uint64_t>(-bound) % bound)
                return static_cast<std::uint64_t>(m >> 64);
        }
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t nextInRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p (clamped to [0,1]). */
    bool nextBool(double p = 0.5)
    {
        return nextDouble() < std::clamp(p, 0.0, 1.0);
    }

    /**
     * Geometric-ish integer with the given mean (>= 0); used for
     * inter-memory-op instruction gaps in workload models.
     */
    std::uint32_t nextGeometric(double mean);

    /**
     * Zipf-distributed rank in [0, n) with exponent s; used to give graph
     * workloads their power-law vertex popularity.  Uses precomputed CDF,
     * so construct a util::ZipfSampler (util/zipf.hpp) for hot loops
     * instead.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** Fork a statistically independent child generator. */
    Rng fork();

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace rmcc::util

#endif // RMCC_UTIL_RNG_HPP

/**
 * @file
 * Runtime dispatch between the portable software crypto kernels and the
 * hardware AES-NI / PCLMULQDQ instruction paths.
 *
 * The software implementations in aes.cpp / clmul.cpp remain the oracle of
 * correctness: the hardware kernels compute the exact same functions
 * (FIPS-197 AES, 128x128 carry-less multiply) and are verified against
 * them bit-for-bit by the test suite.  Routing is decided once per process
 * from RMCC_CRYPTO_IMPL:
 *
 *   auto (default)  use hardware kernels iff the CPU supports them
 *   hw              require hardware kernels; throw if the CPU cannot
 *   sw              force the portable software kernels
 *
 * Every simulator output is bit-identical under all three policies.
 *
 * Invalid values throw via util::envChoice's strict parsing.
 */
#ifndef RMCC_CRYPTO_DISPATCH_HPP
#define RMCC_CRYPTO_DISPATCH_HPP

#include <atomic>
#include <cstdint>

#include "crypto/clmul.hpp"

namespace rmcc::crypto
{

/** The three RMCC_CRYPTO_IMPL policies. */
enum class CryptoImpl
{
    Auto, //!< Hardware when supported, software otherwise (default).
    Hw,   //!< Hardware required; resolution throws without CPU support.
    Sw,   //!< Software forced.
};

/** CPUID-derived instruction-set support. */
struct CpuFeatures
{
    bool aesni = false;  //!< AESENC/AESENCLAST available.
    bool pclmul = false; //!< PCLMULQDQ available.
};

/** Probe the running CPU (all-false on non-x86 builds). */
CpuFeatures detectCpuFeatures();

/** The policy parsed from RMCC_CRYPTO_IMPL ("auto" when unset). */
CryptoImpl configuredCryptoImpl();

/** True when AES encryption is currently routed to AES-NI. */
bool hwAesActive();

/** True when clmul128 is currently routed to PCLMULQDQ. */
bool hwClmulActive();

/**
 * Re-read RMCC_CRYPTO_IMPL and recompute the routing.  Test hook: lets a
 * test force =sw and =hw in one process and compare the kernels.  Throws
 * (leaving the previous routing in place) on an invalid value or on =hw
 * without CPU support.  Not thread-safe; call only while no other thread
 * is inside a crypto kernel.
 */
void reresolveCryptoDispatch();

/**
 * Process-global crypto operation counts, split by routing.  Maintained
 * only while setCryptoOpCounting(true) is active (observability turns it
 * on); otherwise the kernels pay a single relaxed bool load.  Counts are
 * cumulative across the process — consumers (the obs epoch sampler) take
 * deltas, and a parallel suite mixes cells' operations together.
 */
struct CryptoOpCounts
{
    std::uint64_t aes_hw = 0;   //!< AES block encryptions via AES-NI.
    std::uint64_t aes_sw = 0;   //!< AES block encryptions in software.
    std::uint64_t clmul_hw = 0; //!< 128-bit clmuls via PCLMULQDQ.
    std::uint64_t clmul_sw = 0; //!< 128-bit clmuls in software.
};

/** Snapshot the global counters (all zero until counting is enabled). */
CryptoOpCounts cryptoOpCounts();

/** Enable/disable op counting; counters keep their values when off. */
void setCryptoOpCounting(bool on);

/** True when kernels currently increment the op counters. */
bool cryptoOpCountingEnabled();

namespace detail
{

//! Counting gate + counters; relaxed atomics, hot-path cost when
//! disabled is one non-contended load.
extern std::atomic<bool> g_count_ops;
extern std::atomic<std::uint64_t> g_aes_hw;
extern std::atomic<std::uint64_t> g_aes_sw;
extern std::atomic<std::uint64_t> g_clmul_hw;
extern std::atomic<std::uint64_t> g_clmul_sw;

inline void
countAes(bool hw)
{
    if (g_count_ops.load(std::memory_order_relaxed))
        (hw ? g_aes_hw : g_aes_sw).fetch_add(1, std::memory_order_relaxed);
}

inline void
countClmul(bool hw)
{
    if (g_count_ops.load(std::memory_order_relaxed))
        (hw ? g_clmul_hw : g_clmul_sw)
            .fetch_add(1, std::memory_order_relaxed);
}

/** Resolved routing; read per call by the dispatching entry points. */
struct DispatchState
{
    CryptoImpl mode = CryptoImpl::Auto;
    bool hw_aes = false;
    bool hw_clmul = false;
};

/** The process-wide routing, resolved from the env on first use. */
const DispatchState &dispatchState();

/**
 * AES-NI encryption of one block.  round_key_bytes must hold the
 * 16 * (rounds + 1) byte-serialized round keys (Aes::roundKeyBytes()).
 * Calling this on a CPU without AES-NI is undefined; route through
 * dispatchState().
 */
Block128 aesEncryptHw(const std::uint8_t *round_key_bytes, int rounds,
                      const Block128 &plaintext);

/** PCLMULQDQ 128x128 -> 256 carry-less multiply; same contract. */
U256 clmul128Hw(const Block128 &a, const Block128 &b);

} // namespace detail

} // namespace rmcc::crypto

#endif // RMCC_CRYPTO_DISPATCH_HPP

#include "crypto/dispatch.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define RMCC_CRYPTO_X86 1
#include <immintrin.h>
#endif

namespace rmcc::crypto
{

CpuFeatures
detectCpuFeatures()
{
    CpuFeatures f;
#ifdef RMCC_CRYPTO_X86
    f.aesni = __builtin_cpu_supports("aes");
    f.pclmul = __builtin_cpu_supports("pclmul");
#endif
    return f;
}

CryptoImpl
configuredCryptoImpl()
{
    const std::string v =
        util::envChoice("RMCC_CRYPTO_IMPL", {"auto", "hw", "sw"}, "auto");
    if (v == "hw")
        return CryptoImpl::Hw;
    if (v == "sw")
        return CryptoImpl::Sw;
    return CryptoImpl::Auto;
}

CryptoOpCounts
cryptoOpCounts()
{
    CryptoOpCounts c;
    c.aes_hw = detail::g_aes_hw.load(std::memory_order_relaxed);
    c.aes_sw = detail::g_aes_sw.load(std::memory_order_relaxed);
    c.clmul_hw = detail::g_clmul_hw.load(std::memory_order_relaxed);
    c.clmul_sw = detail::g_clmul_sw.load(std::memory_order_relaxed);
    return c;
}

void
setCryptoOpCounting(bool on)
{
    detail::g_count_ops.store(on, std::memory_order_relaxed);
}

bool
cryptoOpCountingEnabled()
{
    return detail::g_count_ops.load(std::memory_order_relaxed);
}

namespace detail
{

std::atomic<bool> g_count_ops{false};
std::atomic<std::uint64_t> g_aes_hw{0};
std::atomic<std::uint64_t> g_aes_sw{0};
std::atomic<std::uint64_t> g_clmul_hw{0};
std::atomic<std::uint64_t> g_clmul_sw{0};

namespace
{

DispatchState
resolveFromEnv()
{
    DispatchState s;
    s.mode = configuredCryptoImpl();
    if (s.mode != CryptoImpl::Sw) {
        const CpuFeatures f = detectCpuFeatures();
        if (s.mode == CryptoImpl::Hw) {
            if (!f.aesni || !f.pclmul)
                throw std::runtime_error(
                    "RMCC_CRYPTO_IMPL=hw: this CPU does not support "
                    "AES-NI and PCLMULQDQ");
            s.hw_aes = true;
            s.hw_clmul = true;
        } else {
            s.hw_aes = f.aesni;
            s.hw_clmul = f.pclmul;
        }
    }
    return s;
}

DispatchState &
mutableState()
{
    static DispatchState state = resolveFromEnv();
    return state;
}

} // namespace

const DispatchState &
dispatchState()
{
    return mutableState();
}

#ifdef RMCC_CRYPTO_X86

__attribute__((target("aes,sse2"))) Block128
aesEncryptHw(const std::uint8_t *round_key_bytes, int rounds,
             const Block128 &plaintext)
{
    const auto *rk =
        reinterpret_cast<const __m128i *>(round_key_bytes);
    __m128i s = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(plaintext.data()));
    s = _mm_xor_si128(s, _mm_loadu_si128(rk));
    for (int r = 1; r < rounds; ++r)
        s = _mm_aesenc_si128(s, _mm_loadu_si128(rk + r));
    s = _mm_aesenclast_si128(s, _mm_loadu_si128(rk + rounds));
    Block128 out;
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out.data()), s);
    return out;
}

__attribute__((target("pclmul,sse2"))) U256
clmul128Hw(const Block128 &a, const Block128 &b)
{
    const auto [a_hi, a_lo] = splitBlock(a);
    const auto [b_hi, b_lo] = splitBlock(b);
    const __m128i va = _mm_set_epi64x(static_cast<long long>(a_hi),
                                      static_cast<long long>(a_lo));
    const __m128i vb = _mm_set_epi64x(static_cast<long long>(b_hi),
                                      static_cast<long long>(b_lo));
    // Four 64x64 partial products, recombined exactly like the software
    // path so the 256-bit result is limb-for-limb identical.
    const __m128i ll = _mm_clmulepi64_si128(va, vb, 0x00); // a_lo * b_lo
    const __m128i hh = _mm_clmulepi64_si128(va, vb, 0x11); // a_hi * b_hi
    const __m128i lh = _mm_clmulepi64_si128(va, vb, 0x10); // a_lo * b_hi
    const __m128i hl = _mm_clmulepi64_si128(va, vb, 0x01); // a_hi * b_lo
    const __m128i mid = _mm_xor_si128(lh, hl);

    std::uint64_t w_ll[2], w_hh[2], w_mid[2];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(w_ll), ll);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(w_hh), hh);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(w_mid), mid);

    U256 out;
    out.limb[0] = w_ll[0];
    out.limb[1] = w_ll[1] ^ w_mid[0];
    out.limb[2] = w_hh[0] ^ w_mid[1];
    out.limb[3] = w_hh[1];
    return out;
}

#else // !RMCC_CRYPTO_X86

// Non-x86 builds never resolve hw_aes/hw_clmul to true, so these bodies
// are unreachable; they exist only to satisfy the linker.
Block128
aesEncryptHw(const std::uint8_t *, int, const Block128 &)
{
    std::abort();
}

U256
clmul128Hw(const Block128 &, const Block128 &)
{
    std::abort();
}

#endif // RMCC_CRYPTO_X86

} // namespace detail

bool
hwAesActive()
{
    return detail::dispatchState().hw_aes;
}

bool
hwClmulActive()
{
    return detail::dispatchState().hw_clmul;
}

void
reresolveCryptoDispatch()
{
    // Resolve first so a throwing resolution leaves the old routing.
    const detail::DispatchState fresh = detail::resolveFromEnv();
    detail::mutableState() = fresh;
}

} // namespace rmcc::crypto

/**
 * @file
 * Tenancy subsystem tests: the tenant address tag,
 * mixer determinism and traffic shares, per-tenant accounting, and the
 * isolation invariants — two tenants touching the same component
 * virtual address must never share physical frames, memoized counter
 * values, or data-plane OTPs under strict isolation, and the inert
 * single-tenant shape must leave simulation results bit-identical.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>

#include "address/page_mapper.hpp"
#include "core/memo_table.hpp"
#include "crypto/otp.hpp"
#include "sim/functional_sim.hpp"
#include "tenancy/mixer.hpp"
#include "tenancy/stats.hpp"
#include "tenancy/tenancy.hpp"
#include "trace/trace_buffer.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;
using namespace rmcc::tenancy;

namespace
{

/** Two-tenant strict mix spec over cheap non-graph workloads. */
MixSpec
smallSpec(std::uint64_t tenants, double storm = 0.0)
{
    MixSpec spec;
    spec.cfg.tenants = tenants;
    spec.cfg.skew = 0.99;
    spec.cfg.isolation = IsolationMode::Strict;
    spec.archetypes = {wl::findWorkload("canneal"),
                       wl::findWorkload("mcf")};
    spec.records = 20000;
    spec.component_records = 10000;
    spec.seed = 13;
    spec.storm_share = storm;
    return spec;
}

} // namespace

// --- the tenant address tag -------------------------------------------

TEST(TenantAddressMap, ShiftClearsFootprintWithHugePageFloor)
{
    // Tiny footprints still get the 2 MB floor (no huge page may span
    // tenants); big footprints push the tag above their highest bit.
    const TenantAddressMap small(4, 0xfff);
    EXPECT_EQ(small.tagShift(), TenantAddressMap::kMinTagShift);
    const TenantAddressMap big(4, (1ULL << 30) - 1);
    EXPECT_EQ(big.tagShift(), 30u);
}

TEST(TenantAddressMap, TagRoundTripsTenantAndOffset)
{
    const TenantAddressMap map(8, (1ULL << 24) - 1);
    for (std::uint64_t t = 0; t < 8; ++t) {
        const addr::Addr tagged = map.tag(t, 0xabcdef);
        EXPECT_EQ(map.tenantOf(tagged), t);
        EXPECT_EQ(tagged & ((1ULL << map.tagShift()) - 1), 0xabcdefu);
    }
    // Distinct tenants, same component vaddr -> distinct tagged vaddrs.
    EXPECT_NE(map.tag(0, 0x1000), map.tag(1, 0x1000));
}

// --- mixer ------------------------------------------------------------

TEST(TenantMixer, DeterministicForEqualSpecs)
{
    const MixSpec spec = smallSpec(4);
    trace::TraceBuffer a(spec.records), b(spec.records);
    TenantMixer(spec).generate(a);
    TenantMixer(spec).generate(b);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.records().data(), b.records().data(),
                          a.size() * sizeof(trace::Record)),
              0);
}

TEST(TenantMixer, SharesFollowZipfAndStorm)
{
    const TenantMixer plain(smallSpec(8));
    double total = 0.0;
    for (std::uint64_t t = 0; t < 8; ++t)
        total += plain.expectedShare(t);
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GT(plain.expectedShare(0), plain.expectedShare(1));
    EXPECT_GT(plain.expectedShare(1), plain.expectedShare(7));

    const TenantMixer storm(smallSpec(8, 0.5));
    EXPECT_GT(storm.expectedShare(0), plain.expectedShare(0) + 0.3);

    // Observed draws track the expectation: count tenant tags in the
    // generated stream.
    const MixSpec spec = smallSpec(8, 0.5);
    trace::TraceBuffer buf(spec.records);
    const TenantMixer mixer(spec);
    mixer.generate(buf);
    std::uint64_t hot = 0;
    for (const trace::Record &r : buf.records())
        hot += mixer.addressMap().tenantOf(
                   static_cast<addr::Addr>(r.vaddr)) == 0;
    const double observed =
        static_cast<double>(hot) / static_cast<double>(buf.size());
    EXPECT_NEAR(observed, mixer.expectedShare(0), 0.05);
}

TEST(TenantMixer, TenantsSharingAnArchetypeAreDecorrelated)
{
    // Tenants 0 and 2 both run canneal but from different phase offsets:
    // their untagged component streams must not be identical.
    const MixSpec spec = smallSpec(4);
    trace::TraceBuffer buf(spec.records);
    const TenantMixer mixer(spec);
    mixer.generate(buf);
    std::vector<addr::Addr> t0, t2;
    for (const trace::Record &r : buf.records()) {
        const auto v = static_cast<addr::Addr>(r.vaddr);
        const std::uint64_t t = mixer.addressMap().tenantOf(v);
        const addr::Addr untagged =
            v & ((1ULL << mixer.addressMap().tagShift()) - 1);
        if (t == 0 && t0.size() < 64)
            t0.push_back(untagged);
        else if (t == 2 && t2.size() < 64)
            t2.push_back(untagged);
    }
    ASSERT_GE(t0.size(), 32u);
    ASSERT_GE(t2.size(), 32u);
    const std::size_t n = std::min(t0.size(), t2.size());
    bool differ = false;
    for (std::size_t i = 0; i < n; ++i)
        differ |= t0[i] != t2[i];
    EXPECT_TRUE(differ);
}

// --- isolation invariants ---------------------------------------------

TEST(TenantIsolation, ArenasNeverShareFramesForTheSameVaddr)
{
    // 4 KB fragmented mode, 64 MB pool, 4 tenants: every tenant's frames
    // must come from its own quarter, so the same component vaddr lands
    // in four disjoint physical ranges.
    constexpr std::uint64_t kPhys = 64ULL << 20;
    addr::PageMapper mapper(addr::PageMode::Small4K, kPhys, 3);
    mapper.partitionByTenant(21, 4);
    ASSERT_TRUE(mapper.partitioned());
    const std::uint64_t arena = mapper.arenaBytes();
    ASSERT_GT(arena, 0u);
    std::set<std::uint64_t> arenas_hit;
    for (std::uint64_t t = 0; t < 4; ++t) {
        for (addr::Addr v : {addr::Addr(0x1000), addr::Addr(0x42040)}) {
            const addr::Addr tagged = (t << 21) | v;
            const addr::Addr paddr = mapper.translate(tagged);
            EXPECT_EQ(paddr / arena, t)
                << "tenant " << t << " vaddr " << v
                << " left its arena";
        }
        arenas_hit.insert(t);
    }
    EXPECT_EQ(arenas_hit.size(), 4u);
    // Same component vaddr, different tenants: distinct frames, hence
    // distinct counter blocks and counter groups at every tree level.
    EXPECT_NE(mapper.translate(0x1000), mapper.translate((1ULL << 21) | 0x1000));
}

TEST(TenantIsolation, MemoDomainsNeverLeakValues)
{
    core::MemoConfig mcfg;
    mcfg.domains = 2;
    core::MemoTable table(mcfg);
    table.setActiveDomain(0);
    table.insertGroup(1000);
    EXPECT_TRUE(table.inGroups(1000));
    EXPECT_EQ(table.validGroupsOf(0), 1u);

    // The same counter value is invisible from the other tenant's
    // domain: no lookup, nearest-above, or max may cross tenants.
    table.setActiveDomain(1);
    EXPECT_FALSE(table.contains(1000));
    EXPECT_FALSE(table.inGroups(1000));
    EXPECT_EQ(table.nearestAbove(999), std::nullopt);
    EXPECT_EQ(table.maxInTable(), 0u);
    EXPECT_EQ(table.validGroupsOf(1), 0u);

    // And the reverse direction still sees its own state.
    table.setActiveDomain(0);
    EXPECT_TRUE(table.inGroups(1000));
    EXPECT_EQ(table.nearestAbove(0).value_or(0), 1000u);
    EXPECT_GE(table.maxInTable(), 1000u); // group top = start + span - 1
}

TEST(TenantIsolation, MemoQuotaEvictsOwnDomainOnly)
{
    core::MemoConfig mcfg;
    mcfg.domains = 2;
    mcfg.quota_groups = 2;
    core::MemoTable table(mcfg);
    table.setActiveDomain(0);
    table.insertGroup(100);
    table.insertGroup(200);
    table.setActiveDomain(1);
    table.insertGroup(300);
    // Domain 0 is at quota: its next insert must evict a domain-0 group,
    // leaving domain 1 untouched.
    table.setActiveDomain(0);
    table.insertGroup(400);
    EXPECT_LE(table.validGroupsOf(0), 2u);
    EXPECT_EQ(table.validGroupsOf(1), 1u);
    table.setActiveDomain(1);
    EXPECT_TRUE(table.inGroups(300));
}

TEST(TenantIsolation, KeyDomainsDeriveDisjointOtps)
{
    const std::uint64_t seed = 0xfa177;
    const crypto::DomainKeys k0 = crypto::deriveDomainKeys(seed, 0);
    const crypto::DomainKeys k1 = crypto::deriveDomainKeys(seed, 1);
    const crypto::RmccOtpEngine e0(k0.enc, k0.mac);
    const crypto::RmccOtpEngine e1(k1.enc, k1.mac);
    const crypto::RmccOtpEngine platform(
        crypto::Aes::fromSeed(seed),
        crypto::Aes::fromSeed(seed + 0x9e3779b9));
    for (std::uint64_t a = 0; a < 16; ++a) {
        const std::uint64_t addr = 0x2000 + 64 * a;
        // Same (address, counter), different tenants: every pad differs.
        EXPECT_NE(e0.encryptionOtp(addr, 0, 9),
                  e1.encryptionOtp(addr, 0, 9));
        EXPECT_NE(e0.macOtp(addr, 9), e1.macOtp(addr, 9));
        // And a tenant domain is never the platform schedule.
        EXPECT_NE(e0.encryptionOtp(addr, 0, 9),
                  platform.encryptionOtp(addr, 0, 9));
    }
    // Determinism: the same (seed, domain) re-derives the same keys.
    const crypto::DomainKeys again = crypto::deriveDomainKeys(seed, 1);
    const crypto::RmccOtpEngine e1b(again.enc, again.mac);
    EXPECT_EQ(e1.encryptionOtp(0x2000, 0, 9),
              e1b.encryptionOtp(0x2000, 0, 9));
}

// --- shape plumbing ---------------------------------------------------

TEST(TenancyShape, ArenaBlocksMirrorsMapperAndSetsKeyShift)
{
    sim::SystemConfig cfg = sim::SystemConfig::functionalDefault();
    cfg.tenancy.tenants = 4;
    cfg.tenancy.tag_shift = 26;
    cfg.tenancy.strict = true;
    const std::uint64_t blocks = arenaBlocks(cfg);
    ASSERT_GT(blocks, 0u);
    // Power of two, and exactly what the mapper will carve.
    EXPECT_EQ(blocks & (blocks - 1), 0u);
    const std::uint64_t page = cfg.page_mode == addr::PageMode::Huge2M
                                   ? addr::kHugePageSize
                                   : addr::kSmallPageSize;
    EXPECT_EQ(blocks,
              addr::PageMapper::arenaFramesFor(cfg.page_mode,
                                               cfg.phys_bytes, 4) *
                  (page / addr::kBlockSize));
    EXPECT_EQ(1ULL << keyDomainShift(cfg), blocks);

    // Inert shapes carve nothing and keep the single key domain.
    cfg.tenancy.strict = false;
    EXPECT_EQ(arenaBlocks(cfg), 0u);
    EXPECT_EQ(keyDomainShift(cfg), 0u);
    cfg.tenancy.strict = true;
    cfg.tenancy.tenants = 1;
    EXPECT_EQ(arenaBlocks(cfg), 0u);
}

// --- per-tenant accounting --------------------------------------------

TEST(TenantAccountant, RoutesByTagWithOverflowSlot)
{
    sim::TenancyShape shape;
    shape.tenants = 100; // beyond kMaxTracked: overflow pools in "other"
    shape.tag_shift = 21;
    TenantAccountant acct(shape, 0);
    EXPECT_EQ(acct.tracked(), TenantAccountant::kMaxTracked);
    EXPECT_TRUE(acct.hasOverflow());

    mc::McReadResult miss;
    miss.counter_miss = true;
    miss.memo_hit = true;
    acct.onRead(addr::Addr(0) << 21 | 0x10, miss, 100.0);
    acct.onRead(addr::Addr(1) << 21 | 0x10, mc::McReadResult{}, 50.0);
    acct.onRead(addr::Addr(70) << 21 | 0x10, mc::McReadResult{}, 25.0);
    acct.onWrite(addr::Addr(1) << 21 | 0x20);

    EXPECT_EQ(acct.tenant(0).reads, 1u);
    EXPECT_EQ(acct.tenant(0).counter_misses, 1u);
    EXPECT_EQ(acct.tenant(0).memo_hits, 1u);
    EXPECT_EQ(acct.tenant(1).reads, 1u);
    EXPECT_EQ(acct.tenant(1).writes, 1u);
    EXPECT_EQ(acct.other().reads, 1u); // tenant 70 pooled
    EXPECT_EQ(acct.tenant(2).reads, 0u);

    std::ostringstream csv;
    acct.writeCsv(csv, "cell", true);
    std::size_t lines = 0;
    std::string line;
    std::istringstream in(csv.str());
    while (std::getline(in, line))
        ++lines;
    // Header + 64 tracked + "other".
    EXPECT_EQ(lines, 1 + TenantAccountant::kMaxTracked + 1);
}

TEST(TenantAccountant, JainFairnessBounds)
{
    sim::TenancyShape shape;
    shape.tenants = 2;
    shape.tag_shift = 21;
    TenantAccountant even(shape, 0);
    even.onRead(0x10, mc::McReadResult{}, 100.0);
    even.onRead((1ULL << 21) | 0x10, mc::McReadResult{}, 100.0);
    EXPECT_DOUBLE_EQ(even.jainFairness(), 1.0);

    TenantAccountant skewed(shape, 0);
    skewed.onRead(0x10, mc::McReadResult{}, 1000.0);
    skewed.onRead((1ULL << 21) | 0x10, mc::McReadResult{}, 10.0);
    EXPECT_LT(skewed.jainFairness(), 1.0);
    EXPECT_GE(skewed.jainFairness(), 0.5); // 1/n floor for n = 2
}

// --- end to end -------------------------------------------------------

TEST(TenancyEndToEnd, StrictMixServesAllTenantsWithIsolationActive)
{
    const MixSpec spec = smallSpec(2);
    const TenantMix mix = generateMixHandle(spec);

    sim::SystemConfig cfg = sim::SystemConfig::functionalDefault();
    cfg.rmcc = true;
    cfg.trace_records = spec.records;
    cfg.warmup_records = spec.records / 4;
    cfg.l1 = {16 * 1024, 8, 2.0};
    cfg.l2 = {32 * 1024, 8, 4.0};
    cfg.llc = {64 * 1024, 16, 17.0};
    cfg.tenancy.tenants = spec.cfg.tenants;
    cfg.tenancy.tag_shift = mix.tag_shift;
    cfg.tenancy.strict = true;

    TenantAccountant acct(cfg.tenancy, arenaBlocks(cfg));
    const sim::SimResult res = sim::runFunctional(
        "tenancy-e2e", mix.handle.source(), cfg, nullptr, &acct);
    EXPECT_GT(res.instructions, 0u);
    // Both tenants reached the controller and took counter misses.
    EXPECT_GT(acct.tenant(0).reads, 0u);
    EXPECT_GT(acct.tenant(1).reads, 0u);
    EXPECT_GT(acct.tenant(0).counter_misses, 0u);
    EXPECT_GT(acct.tenant(1).counter_misses, 0u);
    EXPECT_EQ(acct.other().reads, 0u);
    const double jain = acct.jainFairness();
    EXPECT_GT(jain, 0.0);
    EXPECT_LE(jain, 1.0);
}

TEST(TenancyEndToEnd, InertShapeIsBitIdenticalToDefault)
{
    // The whole contract of the default path: a TenancyShape with
    // tenants == 1 must not perturb a single counter, whatever the
    // other shape fields say.
    const wl::Workload *w = wl::findWorkload("canneal");
    ASSERT_NE(w, nullptr);
    sim::SystemConfig cfg = sim::SystemConfig::functionalDefault();
    cfg.rmcc = true;
    cfg.trace_records = 20000;
    cfg.warmup_records = 5000;
    const trace::TraceBuffer trace =
        wl::generateTrace(*w, cfg.trace_records, cfg.seed);

    const sim::SimResult base = sim::runFunctional(w->name, trace, cfg);
    sim::SystemConfig shaped = cfg;
    shaped.tenancy.tenants = 1;
    shaped.tenancy.tag_shift = 30;
    shaped.tenancy.strict = true;
    shaped.tenancy.memo_quota = 8;
    const sim::SimResult same =
        sim::runFunctional(w->name, trace, shaped);
    EXPECT_EQ(base.instructions, same.instructions);
    EXPECT_EQ(base.stats.all(), same.stats.all());
}

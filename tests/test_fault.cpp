/**
 * @file
 * Fault-injection subsystem tests: the plan vocabulary, fault-free
 * oracle round trips, the detection matrix (zero silent corruptions
 * across schemes and OTP constructions), the deliberately weakened
 * oracle (nonzero silent — the harness can fail), counter-overflow
 * edges verified through the oracle, and the functional-sim
 * integration path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "crypto/dispatch.hpp"
#include "dram/ddr4.hpp"
#include "fault/campaign.hpp"
#include "mc/secure_mc.hpp"
#include "sim/functional_sim.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;
using namespace rmcc::fault;

TEST(FaultPlan, ComboValidityMatchesThreatModel)
{
    // Ciphertext has no ordered value: rollback is meaningless there.
    EXPECT_FALSE(comboValid(FaultSite::DataCiphertext,
                            FaultKind::CounterRollback));
    // A stored MAC can only be flipped (it is replaced wholesale with
    // its block on replay, which the data-site replay already covers).
    EXPECT_TRUE(comboValid(FaultSite::DataMac, FaultKind::BitFlip));
    EXPECT_FALSE(comboValid(FaultSite::DataMac, FaultKind::StaleReplay));
    // Counter sites admit the full kind set.
    for (FaultKind k : {FaultKind::BitFlip, FaultKind::BurstFlip,
                        FaultKind::CounterRollback, FaultKind::StaleReplay}) {
        EXPECT_TRUE(comboValid(FaultSite::L0Counter, k));
        EXPECT_TRUE(comboValid(FaultSite::TreeNode, k));
    }
    // Memo entries are single values consulted on a hit.
    EXPECT_TRUE(comboValid(FaultSite::MemoEntry, FaultKind::BitFlip));
    EXPECT_FALSE(comboValid(FaultSite::MemoEntry, FaultKind::StaleReplay));

    const std::vector<FaultCombo> combos = allCombos();
    EXPECT_GE(combos.size(), 12u);
    for (const FaultCombo &c : combos)
        EXPECT_TRUE(comboValid(c.site, c.kind));
}

TEST(FaultPlan, StatsAggregateByOutcome)
{
    FaultStats s;
    FaultRecord r;
    r.combo = {FaultSite::L0Counter, FaultKind::BitFlip};
    r.outcome = FaultOutcome::Detected;
    s.add(r);
    s.add(r);
    r.outcome = FaultOutcome::Masked;
    s.add(r);
    EXPECT_EQ(s.injected, 3u);
    EXPECT_EQ(s.detected(), 2u);
    EXPECT_EQ(s.masked(), 1u);
    EXPECT_EQ(s.silent(), 0u);

    FaultStats other;
    r.outcome = FaultOutcome::Silent;
    other.add(r);
    s.merge(other);
    EXPECT_EQ(s.injected, 4u);
    EXPECT_EQ(s.silent(), 1u);
}

namespace
{

/**
 * Drive a seeded Zipf read/write stream through a freshly built secure
 * stack with the campaign attached — the inline equivalent of
 * runFaultSweep() that also exposes the tree for overflow assertions.
 */
FaultStats
driveSweep(ctr::SchemeKind scheme, const FaultPlan &plan,
           const SweepConfig &cfg, ctr::IntegrityTree &tree)
{
    util::Rng rng(cfg.seed);
    if (cfg.init_mean > 0)
        tree.randomInit(rng, cfg.init_mean);
    core::RmccConfig rc;
    rc.enabled = cfg.rmcc;
    core::RmccEngine engine(rc, tree);
    dram::Ddr4 dram;
    mc::McConfig mc_cfg;
    mc_cfg.counter_cache_bytes = cfg.counter_cache_bytes;
    mc::SecureMc mc(mc_cfg, tree, engine, dram);

    OracleConfig ocfg;
    ocfg.split_otp = cfg.split_otp;
    ocfg.mac_bits = cfg.mac_bits;
    FaultCampaign campaign(plan, ocfg);
    campaign.bind(tree, &engine);
    mc.attachObserver(campaign.oracle());

    const util::ZipfSampler zipf(cfg.hot_blocks, 0.8);
    double now = 0.0;
    std::uint64_t budget =
        plan.injections * std::max<std::uint64_t>(1, plan.gap_records) * 4 +
        4096;
    while (!campaign.done() && budget-- > 0) {
        const addr::BlockId blk = zipf(rng);
        const bool write = campaign.oracle()->writtenBlocks().empty() ||
                           rng.nextBool(cfg.write_fraction);
        if (write)
            now = std::max(now, mc.write(addr::blockBase(blk), now));
        else
            mc.read(addr::blockBase(blk), now);
        now += 10.0;
        campaign.afterRecord();
    }
    mc.attachObserver(nullptr);
    (void)scheme;
    return campaign.stats();
}

} // namespace

TEST(DetectionOracle, FaultFreeTrafficAlwaysVerifies)
{
    // No injector: every read must re-derive a clean verdict even as
    // counters overflow, relevel, and memo hits serve reads.
    ctr::IntegrityTree tree(ctr::SchemeKind::Morphable, 1 << 12);
    util::Rng rng(7);
    tree.randomInit(rng, 64);
    core::RmccConfig rc;
    rc.enabled = true;
    core::RmccEngine engine(rc, tree);
    dram::Ddr4 dram;
    mc::McConfig mc_cfg;
    mc_cfg.counter_cache_bytes = 2048;
    mc::SecureMc mc(mc_cfg, tree, engine, dram);

    OracleConfig ocfg;
    DetectionOracle oracle(ocfg, tree);
    mc.attachObserver(&oracle);
    const util::ZipfSampler zipf(1 << 10, 0.8);
    double now = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const addr::BlockId blk = zipf(rng);
        if (oracle.writtenBlocks().empty() || rng.nextBool(0.4))
            now = std::max(now, mc.write(addr::blockBase(blk), now));
        else
            mc.read(addr::blockBase(blk), now);
        now += 10.0;
    }
    mc.attachObserver(nullptr);
    EXPECT_GT(oracle.stats().reads_verified, 1000u);
    EXPECT_EQ(oracle.stats().unexpected_failures, 0u);
}

TEST(DetectionOracle, MutatorsRejectNoOpRequests)
{
    ctr::IntegrityTree tree(ctr::SchemeKind::SgxMonolithic, 1 << 10);
    OracleConfig ocfg;
    DetectionOracle oracle(ocfg, tree);
    // Nothing written yet: nothing to perturb or replay.
    EXPECT_FALSE(oracle.flipCiphertext(5, 0, 1));
    EXPECT_FALSE(oracle.flipMac(5, 0, 1));
    EXPECT_FALSE(oracle.replayData(5));
    EXPECT_FALSE(oracle.hasDistinctPrevData(5));
}

TEST(FaultSweep, DetectionMatrixHasZeroSilentCorruptions)
{
    // The acceptance sweep: >= 10,000 seeded injections across
    // {SGX monolithic, SC-64, Morphable} x {baseline OTP, split OTP},
    // memoization live, must classify every fault as detected or
    // (honestly) masked — never silent, never an unexpected failure.
    const ctr::SchemeKind schemes[] = {ctr::SchemeKind::SgxMonolithic,
                                       ctr::SchemeKind::SC64,
                                       ctr::SchemeKind::Morphable};
    FaultStats total;
    for (ctr::SchemeKind scheme : schemes) {
        for (bool split : {false, true}) {
            FaultPlan plan;
            plan.injections = 1700;
            plan.seed = 0x5eed ^ (static_cast<unsigned>(scheme) << 8) ^
                        (split ? 1 : 0);
            plan.gap_records = 4;
            SweepConfig cfg;
            cfg.scheme = scheme;
            cfg.split_otp = split;
            cfg.seed = 11 + static_cast<unsigned>(scheme);
            const FaultStats s = runFaultSweep(plan, cfg);
            EXPECT_EQ(s.injected, plan.injections);
            EXPECT_EQ(s.silent(), 0u)
                << "silent corruption under scheme "
                << ctr::schemeKindName(scheme)
                << (split ? " split OTP" : " baseline OTP");
            EXPECT_EQ(s.unexpected_failures, 0u);
            EXPECT_GT(s.detected(), s.injected / 2);
            total.merge(s);
        }
    }
    EXPECT_GE(total.injected, 10000u);
    EXPECT_EQ(total.silent(), 0u);
}

TEST(FaultSweep, WeakenedOracleReportsSilentCorruptions)
{
    // Truncate the compared MAC to 8 bits: flips now collide with
    // probability ~2^-8, so a correct harness MUST report nonzero
    // silent corruptions — proving the zero above is a measurement,
    // not a tautology.
    FaultPlan plan;
    plan.injections = 2000;
    plan.gap_records = 4;
    SweepConfig cfg;
    cfg.mac_bits = 8;
    const FaultStats s = runFaultSweep(plan, cfg);
    EXPECT_EQ(s.injected, plan.injections);
    EXPECT_GT(s.silent(), 0u)
        << "an 8-bit MAC cannot catch everything; the harness is "
           "not actually measuring detection";
}

TEST(FaultSweep, Sc64MinorSaturationStaysDetected)
{
    // Hammer a tiny hot set so 7-bit SC-64 minors saturate and force
    // relevels mid-campaign; verification must ride through every
    // rebase with zero silent and zero unexpected failures.
    FaultPlan plan;
    plan.injections = 400;
    plan.gap_records = 4;
    SweepConfig cfg;
    cfg.scheme = ctr::SchemeKind::SC64;
    cfg.hot_blocks = 64;
    cfg.write_fraction = 0.9;
    cfg.init_mean = 120; // minors start near the 7-bit bound
    ctr::IntegrityTree tree(cfg.scheme, cfg.data_blocks);
    const FaultStats s = driveSweep(cfg.scheme, plan, cfg, tree);
    EXPECT_GT(tree.totalOverflows(), 0u)
        << "traffic never saturated a minor; the edge was not exercised";
    EXPECT_EQ(s.silent(), 0u);
    EXPECT_EQ(s.unexpected_failures, 0u);
    EXPECT_GT(s.detected(), 0u);
}

TEST(FaultSweep, MorphableRebaseAtMorphBoundaryStaysDetected)
{
    // Spread writes over a whole morphable block's 128 entities: the
    // non-zero-minor count outgrows every bitmap format, forcing
    // rebases exactly at the morph boundary.
    FaultPlan plan;
    plan.injections = 400;
    plan.gap_records = 4;
    SweepConfig cfg;
    cfg.scheme = ctr::SchemeKind::Morphable;
    cfg.hot_blocks = 128;
    cfg.write_fraction = 0.9;
    cfg.init_mean = 48;
    ctr::IntegrityTree tree(cfg.scheme, cfg.data_blocks);
    const FaultStats s = driveSweep(cfg.scheme, plan, cfg, tree);
    EXPECT_GT(tree.totalOverflows(), 0u)
        << "traffic never forced a rebase; the edge was not exercised";
    EXPECT_EQ(s.silent(), 0u);
    EXPECT_EQ(s.unexpected_failures, 0u);
    EXPECT_GT(s.detected(), 0u);
}

TEST(FaultSweep, FunctionalSimIntegration)
{
    // The 4-arg runFunctional threads the campaign through a full
    // simulated system (TLB, cache hierarchy, preconditioning): the
    // oracle sees only genuine LLC-miss traffic and still classifies
    // every injected fault with zero silent.
    // canneal is write-heavy, so LLC writebacks (the oracle's tracked
    // blocks) start early; mcf's read-streaming pricing pass would give
    // the campaign nothing to perturb in a trace this short.
    const wl::Workload *w = wl::findWorkload("canneal");
    ASSERT_NE(w, nullptr);
    sim::SystemConfig cfg = sim::SystemConfig::functionalDefault();
    cfg.trace_records = 30000;
    cfg.warmup_records = 5000;
    cfg.rmcc = true;
    // Shrink the hierarchy so this short trace actually spills to the
    // memory controller — no LLC misses, nothing for the oracle to see.
    cfg.l1 = {16 * 1024, 8, 2.0};
    cfg.l2 = {32 * 1024, 8, 4.0};
    cfg.llc = {64 * 1024, 16, 17.0};
    const trace::TraceBuffer trace = wl::generateTrace(*w, cfg.trace_records, 1);

    FaultPlan plan;
    plan.injections = 150;
    plan.gap_records = 16;
    OracleConfig ocfg;
    FaultCampaign campaign(plan, ocfg);
    const sim::SimResult res =
        sim::runFunctional(w->name, trace, cfg, &campaign);
    EXPECT_GT(res.instructions, 0u);
    const FaultStats &s = campaign.stats();
    EXPECT_EQ(s.injected, plan.injections);
    EXPECT_GT(s.reads_verified, 0u);
    EXPECT_EQ(s.silent(), 0u);
    EXPECT_EQ(s.unexpected_failures, 0u);
    EXPECT_GT(s.detected(), 0u);
    // Stats survive the rig teardown (the campaign outlives the stack).
    EXPECT_EQ(campaign.stats().injected, plan.injections);
}

TEST(FaultSweep, HwBatchCryptoClassifiesMatrixIdentically)
{
    // Detection verdicts are a crypto-functional property: routing the
    // MAC/OTP kernels through AES-NI / PCLMULQDQ must classify the
    // injection matrix cell for cell like the software kernels — same
    // (site, kind, outcome) counts, not just the same aggregates.
    const crypto::CpuFeatures feat = crypto::detectCpuFeatures();
    if (!feat.aesni || !feat.pclmul)
        GTEST_SKIP() << "no AES-NI/PCLMULQDQ on this host";

    FaultPlan plan;
    plan.injections = 1500;
    plan.gap_records = 4;
    plan.seed = 0x5eed;
    SweepConfig cfg;
    cfg.seed = 23;

    const char *prev_impl = std::getenv("RMCC_CRYPTO_IMPL");
    const std::string saved_impl = prev_impl != nullptr ? prev_impl : "";

    setenv("RMCC_CRYPTO_IMPL", "sw", 1);
    crypto::reresolveCryptoDispatch();
    const FaultStats scalar = runFaultSweep(plan, cfg);

    setenv("RMCC_CRYPTO_IMPL", "hw", 1);
    crypto::reresolveCryptoDispatch();
    const FaultStats hw = runFaultSweep(plan, cfg);

    if (prev_impl != nullptr)
        setenv("RMCC_CRYPTO_IMPL", saved_impl.c_str(), 1);
    else
        unsetenv("RMCC_CRYPTO_IMPL");
    crypto::reresolveCryptoDispatch();

    EXPECT_EQ(hw.injected, scalar.injected);
    EXPECT_EQ(hw.reads_verified, scalar.reads_verified);
    EXPECT_EQ(hw.unexpected_failures, scalar.unexpected_failures);
    EXPECT_EQ(scalar.silent(), 0u);
    EXPECT_EQ(hw.silent(), 0u);
    for (unsigned si = 0; si < kSiteCount; ++si)
        for (unsigned ki = 0; ki < kKindCount; ++ki)
            for (unsigned o = 0; o < 3; ++o)
                EXPECT_EQ(hw.counts[si][ki][o], scalar.counts[si][ki][o])
                    << siteName(static_cast<FaultSite>(si)) << "/"
                    << kindName(static_cast<FaultKind>(ki))
                    << " outcome " << o;
}

/**
 * @file
 * Candidate-monitor tests: the X+1+8i / X+129+2^j ladder, the 2 K
 * high-read trigger, the 98% selection rule (Sec IV-C3), and the
 * bucket histogram against a compare-every-rung oracle.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/candidate_monitor.hpp"
#include "util/rng.hpp"

using namespace rmcc::core;

TEST(Monitor, CandidateLadderShape)
{
    CandidateMonitor m;
    m.arm(1000);
    const auto &c = m.candidates();
    ASSERT_EQ(c.size(), 17u + 14u);
    // Fine rungs X+1+8i, i = 0..16.
    for (unsigned i = 0; i <= 16; ++i)
        EXPECT_EQ(c[i], 1000u + 1 + 8 * i);
    // Exponential rungs X+129+2^j, j = 4..17.
    for (unsigned j = 4; j <= 17; ++j)
        EXPECT_EQ(c[17 + j - 4], 1000u + 129 + (1ULL << j));
    // Ladder is strictly ascending.
    for (std::size_t i = 1; i < c.size(); ++i)
        EXPECT_GT(c[i], c[i - 1]);
}

TEST(Monitor, NoSelectionBeforeTrigger)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 100;
    CandidateMonitor m(cfg);
    m.arm(0);
    for (int i = 0; i < 99; ++i)
        m.observeRead(50); // all above X=0
    EXPECT_FALSE(m.takeSelection().has_value());
    m.observeRead(50);
    EXPECT_TRUE(m.takeSelection().has_value());
}

TEST(Monitor, ReadsBelowArmedMaxDontTrigger)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 10;
    CandidateMonitor m(cfg);
    m.arm(1000);
    for (int i = 0; i < 100; ++i)
        m.observeRead(500); // below X
    EXPECT_EQ(m.highReads(), 0u);
    EXPECT_FALSE(m.takeSelection().has_value());
}

TEST(Monitor, SelectsSmallestCandidateCovering98Percent)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 100;
    CandidateMonitor m(cfg);
    m.arm(1000);
    // All reads at 1040: the smallest candidate above 1040 covers 100%.
    for (int i = 0; i < 200; ++i)
        m.observeRead(1040);
    const auto sel = m.takeSelection();
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 1041u); // 1000+1+8*5
}

TEST(Monitor, TwoPercentOutliersIgnored)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 100;
    cfg.coverage_goal = 0.98;
    CandidateMonitor m(cfg);
    m.arm(1000);
    // 99% of reads at 1010, 1% far above: the selection tracks the bulk.
    for (int i = 0; i < 990; ++i)
        m.observeRead(1010);
    for (int i = 0; i < 10; ++i)
        m.observeRead(900000);
    const auto sel = m.takeSelection();
    ASSERT_TRUE(sel.has_value());
    EXPECT_LE(*sel, 1000u + 129 + (1ULL << 17));
    EXPECT_LE(*sel, 1017u + 8);
}

TEST(Monitor, FarReadsPickTopRungAndRatchet)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 10;
    CandidateMonitor m(cfg);
    m.arm(0);
    // Reads far above every rung: even the top rung covers < 98%, so the
    // monitor returns the top rung and the ladder ratchets upward on the
    // next arming.
    for (int i = 0; i < 20; ++i)
        m.observeRead(10000000);
    const auto sel = m.takeSelection();
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 129u + (1ULL << 17));
}

TEST(Monitor, RearmResetsCounts)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 10;
    CandidateMonitor m(cfg);
    m.arm(0);
    for (int i = 0; i < 20; ++i)
        m.observeRead(5);
    EXPECT_TRUE(m.takeSelection().has_value());
    m.arm(100);
    EXPECT_EQ(m.highReads(), 0u);
    EXPECT_FALSE(m.takeSelection().has_value());
}

namespace
{

/** The monitor as the paper states it: one below-count per rung. */
class RungOracle
{
  public:
    explicit RungOracle(const MonitorConfig &cfg) : cfg_(cfg) {}

    void arm(rmcc::addr::CounterValue x)
    {
        armed_max_ = x;
        rungs_.clear();
        for (unsigned i = 0; i <= 16; ++i)
            rungs_.push_back(x + 1 + 8ULL * i);
        for (unsigned j = 4; j <= 17; ++j)
            rungs_.push_back(x + 129 + (1ULL << j));
        below_.assign(rungs_.size(), 0);
        total_ = high_ = 0;
    }

    void observe(rmcc::addr::CounterValue v)
    {
        ++total_;
        high_ += v > armed_max_;
        for (std::size_t c = 0; c < rungs_.size(); ++c)
            below_[c] += v < rungs_[c];
    }

    std::optional<rmcc::addr::CounterValue> take() const
    {
        if (high_ < cfg_.trigger_reads)
            return std::nullopt;
        const double goal = cfg_.coverage_goal * static_cast<double>(total_);
        for (std::size_t c = 0; c < rungs_.size(); ++c)
            if (static_cast<double>(below_[c]) >= goal)
                return rungs_[c];
        return rungs_.back();
    }

    std::uint64_t high() const { return high_; }
    const std::vector<rmcc::addr::CounterValue> &rungs() const
    {
        return rungs_;
    }

  private:
    MonitorConfig cfg_;
    rmcc::addr::CounterValue armed_max_ = 0;
    std::vector<rmcc::addr::CounterValue> rungs_;
    std::vector<std::uint64_t> below_;
    std::uint64_t total_ = 0, high_ = 0;
};

} // namespace

TEST(Monitor, HistogramMatchesPerRungOracle)
{
    // Every rung edge, X+1+8i and X+129+2^j, each at -1, 0 and +1, and
    // values above the top rung: one read each into a fresh monitor that
    // triggers on one high read and demands full coverage, so the
    // selection is the first rung above the read's bucket.
    using V = rmcc::addr::CounterValue;
    for (const V x : {V{0}, V{1000}, V{1} << 40}) {
        MonitorConfig cfg;
        cfg.trigger_reads = 1;
        cfg.coverage_goal = 1.0;
        RungOracle edges(cfg);
        edges.arm(x);
        std::vector<V> reads;
        for (const V r : edges.rungs())
            for (const V d : {0, 1, 2})
                reads.push_back(r + d - 1);
        const V top = edges.rungs().back();
        for (const V above :
             {top + 1, top + 1000, top + (V{1} << 20), x + (V{1} << 40)})
            reads.push_back(above);
        for (const V v : reads) {
            CandidateMonitor m(cfg);
            RungOracle o(cfg);
            m.arm(x);
            o.arm(x);
            m.observeRead(v);
            o.observe(v);
            EXPECT_EQ(m.triggered(), v > x) << "x " << x << " v " << v;
            EXPECT_EQ(m.takeSelection(), o.take()) << "x " << x << " v " << v;
        }
    }

    rmcc::util::Rng rng(2022);
    for (int run = 0; run < 20; ++run) {
        MonitorConfig cfg;
        cfg.trigger_reads = 1 + rng.nextBelow(200);
        cfg.coverage_goal = 0.5 + 0.5 * rng.nextDouble();
        CandidateMonitor m(cfg);
        RungOracle o(cfg);
        rmcc::addr::CounterValue x = rng.nextBelow(1000);
        m.arm(x);
        o.arm(x);
        for (int step = 0; step < 5000; ++step) {
            if (rng.nextBool(0.002)) {
                x = rng.nextBelow(1 << 20);
                m.arm(x);
                o.arm(x);
            }
            // Half the reads sit exactly on a rung edge (rung - 1, rung,
            // rung + 1) or on X / X + 1; the rest spread below X and
            // across the whole ladder.
            rmcc::addr::CounterValue v;
            if (rng.nextBool()) {
                const auto &r = o.rungs();
                const std::uint64_t pick = rng.nextBelow(r.size() + 2);
                const rmcc::addr::CounterValue edge =
                    pick < r.size() ? r[pick] : x + (pick - r.size());
                v = edge + rng.nextBelow(3) - 1;
            } else {
                v = x + rng.nextBelow(1 << 18) - std::min<std::uint64_t>(
                                                     x, 300);
            }
            m.observeRead(v);
            o.observe(v);
            ASSERT_EQ(m.highReads(), o.high());
            const auto got = m.takeSelection();
            ASSERT_EQ(got, o.take()) << "run " << run << " step " << step;
            // The engine re-arms above each selection it inserts.
            if (got.has_value() && rng.nextBool(0.5)) {
                x = *got + 7;
                m.arm(x);
                o.arm(x);
            }
        }
    }
}

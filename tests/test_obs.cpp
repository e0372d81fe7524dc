/**
 * @file
 * Observability subsystem tests: log2-histogram math, Chrome-trace JSON
 * output (validated by a tiny in-test checker), epoch CSV determinism,
 * the RMCC_OBS=off bit-identity guarantee, strict env parsing, trace
 * buffer drop accounting, and leveled logging.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace_writer.hpp"
#include "sim/experiments.hpp"
#include "sim/front_end.hpp"
#include "sim/obs_wiring.hpp"
#include "sim/rig.hpp"
#include "trace/trace_buffer.hpp"
#include "util/log.hpp"

using namespace rmcc;
namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/** Fresh unique directory under the test temp root. */
std::string
freshDir(const std::string &tag)
{
    static int n = 0;
    const std::string d =
        ::testing::TempDir() + "rmcc_obs_" + tag + "_" + std::to_string(n++);
    fs::remove_all(d);
    return d;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::size_t
fileCount(const std::string &dir)
{
    if (!fs::is_directory(dir))
        return 0;
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e : fs::directory_iterator(dir))
        ++n;
    return n;
}

/** Clears every RMCC_OBS* variable and resets the cached session. */
void
clearObsEnv()
{
    unsetenv("RMCC_OBS");
    unsetenv("RMCC_OBS_DIR");
    unsetenv("RMCC_OBS_EPOCH_RECORDS");
    unsetenv("RMCC_OBS_MAX_EPOCHS");
    obs::reresolveObs();
}

/** Scoped obs environment: set → reresolve → restore on destruction. */
class ObsEnv
{
  public:
    ObsEnv(const char *mode, const std::string &dir,
           const char *epoch_records = nullptr)
    {
        setenv("RMCC_OBS", mode, 1);
        setenv("RMCC_OBS_DIR", dir.c_str(), 1);
        if (epoch_records)
            setenv("RMCC_OBS_EPOCH_RECORDS", epoch_records, 1);
        obs::reresolveObs();
    }
    ~ObsEnv() { clearObsEnv(); }
};

/**
 * Tiny Chrome-trace checker: a full JSON syntax walk (strings with
 * escapes, numbers, literals, nested containers) plus the trace-event
 * shape requirements — top-level object with a "traceEvents" array whose
 * every element carries name/ph/pid/tid, ph one of X/i/M.
 */
class JsonSyntax
{
  public:
    explicit JsonSyntax(const std::string &text) : s_(text) {}

    bool valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return i_ == s_.size();
    }

  private:
    void ws()
    {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }
    bool lit(const char *l)
    {
        const std::size_t n = std::strlen(l);
        if (s_.compare(i_, n, l) == 0) {
            i_ += n;
            return true;
        }
        return false;
    }
    bool string()
    {
        if (i_ >= s_.size() || s_[i_] != '"')
            return false;
        ++i_;
        while (i_ < s_.size()) {
            const char c = s_[i_];
            if (c == '\\') {
                i_ += 2;
                continue;
            }
            ++i_;
            if (c == '"')
                return true;
        }
        return false;
    }
    bool number()
    {
        const std::size_t start = i_;
        auto digit = [&] {
            return i_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[i_]));
        };
        if (i_ < s_.size() && s_[i_] == '-')
            ++i_;
        while (digit())
            ++i_;
        if (i_ < s_.size() && s_[i_] == '.') {
            ++i_;
            while (digit())
                ++i_;
        }
        if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
            ++i_;
            if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-'))
                ++i_;
            while (digit())
                ++i_;
        }
        return i_ > start;
    }
    bool object()
    {
        if (s_[i_] != '{')
            return false;
        ++i_;
        ws();
        if (i_ < s_.size() && s_[i_] == '}') {
            ++i_;
            return true;
        }
        for (;;) {
            ws();
            if (!string())
                return false;
            ws();
            if (i_ >= s_.size() || s_[i_] != ':')
                return false;
            ++i_;
            ws();
            if (!value())
                return false;
            ws();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            break;
        }
        if (i_ >= s_.size() || s_[i_] != '}')
            return false;
        ++i_;
        return true;
    }
    bool array()
    {
        if (s_[i_] != '[')
            return false;
        ++i_;
        ws();
        if (i_ < s_.size() && s_[i_] == ']') {
            ++i_;
            return true;
        }
        for (;;) {
            ws();
            if (!value())
                return false;
            ws();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            break;
        }
        if (i_ >= s_.size() || s_[i_] != ']')
            return false;
        ++i_;
        return true;
    }
    bool value()
    {
        if (i_ >= s_.size())
            return false;
        switch (s_[i_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return lit("true");
        case 'f': return lit("false");
        case 'n': return lit("null");
        default: return number();
        }
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

/** Asserts the document is a well-formed Chrome trace; returns it. */
std::string
expectValidChromeTrace(const std::string &path)
{
    const std::string doc = slurp(path);
    EXPECT_FALSE(doc.empty()) << path;
    EXPECT_TRUE(JsonSyntax(doc).valid()) << path;
    EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
    // Every event object line carries the required keys with a legal ph.
    std::istringstream lines(doc);
    std::string line;
    std::size_t events = 0;
    while (std::getline(lines, line)) {
        const std::size_t brace = line.find('{');
        if (brace == std::string::npos ||
            line.find("\"name\"") == std::string::npos)
            continue;
        ++events;
        EXPECT_NE(line.find("\"ph\":\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"pid\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
        const std::size_t ph = line.find("\"ph\":\"");
        const char kind = line[ph + 6];
        EXPECT_TRUE(kind == 'X' || kind == 'i' || kind == 'M') << line;
        if (kind != 'M') {
            EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
        }
    }
    EXPECT_GT(events, 0u) << path;
    return doc;
}

/** Parse a CSV column by header name; returns the values top to bottom. */
std::vector<double>
csvColumn(const std::string &csv, const std::string &name)
{
    std::istringstream in(csv);
    std::string line;
    std::vector<double> out;
    if (!std::getline(in, line))
        return out;
    std::ptrdiff_t col = -1, c = 0;
    std::istringstream hdr(line);
    std::string cell;
    while (std::getline(hdr, cell, ',')) {
        if (cell == name)
            col = c;
        ++c;
    }
    if (col < 0)
        return out;
    while (std::getline(in, line)) {
        std::istringstream row(line);
        c = 0;
        while (std::getline(row, cell, ',')) {
            if (c++ == col)
                out.push_back(std::strtod(cell.c_str(), nullptr));
        }
    }
    return out;
}

/** Miniature experiment shape for real-simulation tests. */
void
shrink(sim::SystemConfig &cfg)
{
    cfg.trace_records = 50000;
    cfg.warmup_records = 25000;
    cfg.precondition_budget_fraction = 30.0;
}

} // namespace

// ---------------------------------------------------------------------------
// Log2Histogram
// ---------------------------------------------------------------------------

TEST(Log2Histogram, BucketEdges)
{
    using H = obs::Log2Histogram;
    EXPECT_EQ(H::bucketOf(0.0), 0u);
    EXPECT_EQ(H::bucketOf(0.5), 0u);
    EXPECT_EQ(H::bucketOf(0.999), 0u);
    EXPECT_EQ(H::bucketOf(1.0), 1u);
    EXPECT_EQ(H::bucketOf(1.999), 1u);
    EXPECT_EQ(H::bucketOf(2.0), 2u);
    EXPECT_EQ(H::bucketOf(3.999), 2u);
    EXPECT_EQ(H::bucketOf(4.0), 3u);
    // Bucket i covers [bucketLow, bucketHigh).
    for (std::size_t i = 1; i < 40; ++i) {
        EXPECT_EQ(H::bucketOf(H::bucketLow(i)), i);
        EXPECT_EQ(H::bucketOf(std::nextafter(H::bucketHigh(i), 0.0)), i);
    }
    EXPECT_DOUBLE_EQ(H::bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(H::bucketHigh(0), 1.0);
    EXPECT_DOUBLE_EQ(H::bucketLow(5), 16.0);
    EXPECT_DOUBLE_EQ(H::bucketHigh(5), 32.0);
    // Values beyond the last bucket edge saturate into the last bucket.
    EXPECT_EQ(H::bucketOf(1e300), H::kBuckets - 1);
}

TEST(Log2Histogram, ExactWhenAllSamplesEqual)
{
    obs::Log2Histogram h;
    for (int i = 0; i < 100; ++i)
        h.add(7.0);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
    EXPECT_DOUBLE_EQ(h.max(), 7.0);
    // The quantile clamps the bucket upper edge (8) to the exact max.
    EXPECT_DOUBLE_EQ(h.quantile(0.50), 7.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.0);
    const obs::HistSummary s = h.summary();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 7.0);
    EXPECT_DOUBLE_EQ(s.p99, 7.0);
    EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(Log2Histogram, QuantilesAreConservativeUpperBounds)
{
    obs::Log2Histogram h;
    const double samples[] = {1.0, 2.0, 3.0, 4.0, 100.0};
    for (const double v : samples)
        h.add(v);
    // True p50 is 3; the reported one must bound it from above without
    // exceeding the observed max.
    EXPECT_GE(h.quantile(0.50), 3.0);
    EXPECT_LE(h.quantile(0.50), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
    // Monotone in p.
    double prev = 0.0;
    for (double p = 0.1; p <= 1.0; p += 0.1) {
        EXPECT_GE(h.quantile(p), prev);
        prev = h.quantile(p);
    }
}

TEST(Log2Histogram, SmallExactCases)
{
    obs::Log2Histogram h;
    h.add(2.0); // bucket 2 = [2,4)
    h.add(2.0);
    // rank(0.5 * 2) = 1 -> bucket 2 -> min(4, max=2) = 2: exact.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    h.add(1024.0); // bucket 11 = [1024, 2048)
    // p99 rank = ceil(.99*3) = 3 -> bucket 11 -> min(2048, 1024) = 1024.
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 1024.0);
}

TEST(Log2Histogram, EmptyAndReset)
{
    obs::Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
    h.add(5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Log2Histogram, NegativeAndNanClampToBucketZero)
{
    obs::Log2Histogram h;
    h.add(-123.0);
    h.add(std::nan(""));
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TEST(TraceWriter, CapCountsDrops)
{
    obs::TraceWriter tw(2);
    tw.instant("a", 0);
    tw.instant("b", 0);
    tw.instant("c", 0);
    EXPECT_EQ(tw.size(), 2u);
    EXPECT_EQ(tw.dropped(), 1u);
}

TEST(TraceWriter, JsonEscape)
{
    EXPECT_EQ(obs::TraceWriter::jsonEscape("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::TraceWriter::jsonEscape(std::string(1, '\x01')),
              "\\u0001");
    EXPECT_EQ(obs::TraceWriter::jsonEscape("plain"), "plain");
}

TEST(TraceWriter, WritesValidChromeTraceJson)
{
    const std::string dir = freshDir("tw");
    fs::create_directories(dir);
    obs::TraceWriter tw;
    tw.complete("cell:one", 0.0, 1500.0, 0, "{\"records\":42}");
    tw.complete("cell:two \"quoted\"", 100.0, 2.5, 1);
    tw.instant("overflow", 2);
    const std::string path = dir + "/trace.json";
    ASSERT_TRUE(tw.writeJson(path));
    const std::string doc = expectValidChromeTrace(path);
    // Lane metadata for every tid seen, with the worker naming scheme.
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"main\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"worker-0\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"worker-1\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":1500.000"), std::string::npos);
    EXPECT_NE(doc.find("\"s\":\"t\""), std::string::npos);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Env parsing and cell naming
// ---------------------------------------------------------------------------

TEST(ObsEnvParse, ModesAndDefaults)
{
    clearObsEnv();
    obs::ObsConfig cfg = obs::obsConfigFromEnv();
    EXPECT_EQ(cfg.mode, obs::ObsMode::Off);
    EXPECT_EQ(cfg.dir, "rmcc-obs");
    EXPECT_EQ(cfg.epoch_records, 10000u);
    EXPECT_EQ(cfg.max_epochs, 4096u);

    setenv("RMCC_OBS", "epochs", 1);
    setenv("RMCC_OBS_DIR", "/tmp/somewhere", 1);
    setenv("RMCC_OBS_EPOCH_RECORDS", "500", 1);
    setenv("RMCC_OBS_MAX_EPOCHS", "16", 1);
    cfg = obs::obsConfigFromEnv();
    EXPECT_EQ(cfg.mode, obs::ObsMode::Epochs);
    EXPECT_EQ(cfg.dir, "/tmp/somewhere");
    EXPECT_EQ(cfg.epoch_records, 500u);
    EXPECT_EQ(cfg.max_epochs, 16u);

    setenv("RMCC_OBS", "full", 1);
    EXPECT_EQ(obs::obsConfigFromEnv().mode, obs::ObsMode::Full);
    clearObsEnv();
}

TEST(ObsEnvParse, GarbageIsRejectedLoudly)
{
    clearObsEnv();
    setenv("RMCC_OBS", "banana", 1);
    EXPECT_THROW(obs::obsConfigFromEnv(), std::runtime_error);
    setenv("RMCC_OBS", "off", 1);
    setenv("RMCC_OBS_EPOCH_RECORDS", "0", 1);
    EXPECT_THROW(obs::obsConfigFromEnv(), std::runtime_error);
    setenv("RMCC_OBS_EPOCH_RECORDS", "12x", 1);
    EXPECT_THROW(obs::obsConfigFromEnv(), std::runtime_error);
    unsetenv("RMCC_OBS_EPOCH_RECORDS");
    setenv("RMCC_OBS_MAX_EPOCHS", "-3", 1);
    EXPECT_THROW(obs::obsConfigFromEnv(), std::runtime_error);
    clearObsEnv();
}

TEST(ObsEnvParse, OffProducesNoRegistry)
{
    clearObsEnv();
    EXPECT_EQ(obs::makeRunRegistry("anything"), nullptr);
    setenv("RMCC_OBS", "off", 1);
    obs::reresolveObs();
    EXPECT_EQ(obs::makeRunRegistry("anything"), nullptr);
    clearObsEnv();
}

TEST(ObsCellName, SanitizesAndDisambiguates)
{
    EXPECT_EQ(obs::sanitizeCellName("a b/c:d"), "a-b-c-d");
    EXPECT_EQ(obs::sanitizeCellName("ok_name-1.2+x"), "ok_name-1.2+x");

    sim::SystemConfig a = sim::SystemConfig::timingDefault();
    sim::SystemConfig b = a;
    const std::string na = sim::detail::cellName("mcf", a);
    EXPECT_EQ(na, sim::detail::cellName("mcf", b)); // deterministic
    // Fields describe() omits still distinguish the cell, among them the
    // inputs Figs 19/20 (budget fraction) and Fig 10 (MRU recent values)
    // sweep.
    b.precondition_budget_fraction = 7.0;
    EXPECT_NE(na, sim::detail::cellName("mcf", b));
    b = a;
    b.seed = 43;
    EXPECT_NE(na, sim::detail::cellName("mcf", b));
    b = a;
    b.rmcc_cfg.budget.fraction = 0.02;
    EXPECT_NE(na, sim::detail::cellName("mcf", b));
    b = a;
    b.rmcc_cfg.memo.recent_values = 0;
    EXPECT_NE(na, sim::detail::cellName("mcf", b));
    // And the readable prefix reflects the scheme stack.
    EXPECT_NE(na.find("mcf-timing-morphable"), std::string::npos);
}

namespace
{

using Perturbation =
    std::pair<const char *, std::function<void(sim::SystemConfig &)>>;

/** One change per SystemConfig field, nested fields included. */
std::vector<Perturbation>
fieldPerturbations()
{
    using sim::SystemConfig;
    return {
        {"mode", [](SystemConfig &c) { c.mode = sim::SimMode::Functional; }},
        {"secure", [](SystemConfig &c) { c.secure = !c.secure; }},
        {"scheme",
         [](SystemConfig &c) { c.scheme = ctr::SchemeKind::SC64; }},
        {"rmcc", [](SystemConfig &c) { c.rmcc = !c.rmcc; }},
        {"memo.groups", [](SystemConfig &c) { ++c.rmcc_cfg.memo.groups; }},
        {"memo.group_size",
         [](SystemConfig &c) { ++c.rmcc_cfg.memo.group_size; }},
        {"memo.shadow_groups",
         [](SystemConfig &c) { ++c.rmcc_cfg.memo.shadow_groups; }},
        {"memo.recent_values",
         [](SystemConfig &c) { ++c.rmcc_cfg.memo.recent_values; }},
        {"memo.domains", [](SystemConfig &c) { ++c.rmcc_cfg.memo.domains; }},
        {"memo.quota_groups",
         [](SystemConfig &c) { ++c.rmcc_cfg.memo.quota_groups; }},
        {"monitor.trigger_reads",
         [](SystemConfig &c) { ++c.rmcc_cfg.monitor.trigger_reads; }},
        {"monitor.coverage_goal",
         [](SystemConfig &c) { c.rmcc_cfg.monitor.coverage_goal += 1e-9; }},
        {"budget.fraction",
         [](SystemConfig &c) { c.rmcc_cfg.budget.fraction *= 2; }},
        {"budget.epoch_accesses",
         [](SystemConfig &c) { ++c.rmcc_cfg.budget.epoch_accesses; }},
        {"budget.initial_pool_accesses",
         [](SystemConfig &c) {
             c.rmcc_cfg.budget.initial_pool_accesses += 1;
         }},
        {"memo_levels", [](SystemConfig &c) { --c.rmcc_cfg.memo_levels; }},
        {"read_update",
         [](SystemConfig &c) {
             c.rmcc_cfg.read_update = !c.rmcc_cfg.read_update;
         }},
        {"enabled",
         [](SystemConfig &c) { c.rmcc_cfg.enabled = !c.rmcc_cfg.enabled; }},
        {"counter_cache_bytes",
         [](SystemConfig &c) { c.counter_cache_bytes *= 2; }},
        {"counter_cache_assoc",
         [](SystemConfig &c) { c.counter_cache_assoc *= 2; }},
        {"lat.aes_ns", [](SystemConfig &c) { c.lat.aes_ns += 1; }},
        {"lat.clmul_ns", [](SystemConfig &c) { c.lat.clmul_ns += 1; }},
        {"lat.mac_dot_ns", [](SystemConfig &c) { c.lat.mac_dot_ns += 1; }},
        {"lat.otp_xor_ns", [](SystemConfig &c) { c.lat.otp_xor_ns += 1; }},
        {"lat.ctr_cache_ns",
         [](SystemConfig &c) { c.lat.ctr_cache_ns += 1; }},
        {"dram.channels", [](SystemConfig &c) { ++c.dram.channels; }},
        {"dram.ranks", [](SystemConfig &c) { ++c.dram.ranks; }},
        {"dram.banks_per_rank",
         [](SystemConfig &c) { ++c.dram.banks_per_rank; }},
        {"dram.row_bytes", [](SystemConfig &c) { c.dram.row_bytes *= 2; }},
        {"dram.data_rate_gtps",
         [](SystemConfig &c) { c.dram.data_rate_gtps += 0.1; }},
        {"dram.bus_bytes", [](SystemConfig &c) { c.dram.bus_bytes *= 2; }},
        {"dram.tCL_ns", [](SystemConfig &c) { c.dram.tCL_ns += 1; }},
        {"dram.tRCD_ns", [](SystemConfig &c) { c.dram.tRCD_ns += 1; }},
        {"dram.tRP_ns", [](SystemConfig &c) { c.dram.tRP_ns += 1; }},
        {"dram.tRFC_ns", [](SystemConfig &c) { c.dram.tRFC_ns += 1; }},
        {"dram.tREFI_ns", [](SystemConfig &c) { c.dram.tREFI_ns += 1; }},
        {"dram.row_timeout_ns",
         [](SystemConfig &c) { c.dram.row_timeout_ns += 1; }},
        {"dram.queue_entries",
         [](SystemConfig &c) { ++c.dram.queue_entries; }},
        {"dram.frfcfs_cap", [](SystemConfig &c) { ++c.dram.frfcfs_cap; }},
        {"cpu.freq_ghz", [](SystemConfig &c) { c.cpu.freq_ghz += 0.1; }},
        {"cpu.width", [](SystemConfig &c) { ++c.cpu.width; }},
        {"cpu.rob", [](SystemConfig &c) { ++c.cpu.rob; }},
        {"cpu.mshrs", [](SystemConfig &c) { ++c.cpu.mshrs; }},
        {"l1.size_bytes", [](SystemConfig &c) { c.l1.size_bytes *= 2; }},
        {"l1.assoc", [](SystemConfig &c) { c.l1.assoc *= 2; }},
        {"l1.latency_ns", [](SystemConfig &c) { c.l1.latency_ns += 1; }},
        {"l2.size_bytes", [](SystemConfig &c) { c.l2.size_bytes *= 2; }},
        {"l2.assoc", [](SystemConfig &c) { c.l2.assoc *= 2; }},
        {"l2.latency_ns", [](SystemConfig &c) { c.l2.latency_ns += 1; }},
        {"llc.size_bytes", [](SystemConfig &c) { c.llc.size_bytes *= 2; }},
        {"llc.assoc", [](SystemConfig &c) { c.llc.assoc *= 2; }},
        {"llc.latency_ns", [](SystemConfig &c) { c.llc.latency_ns += 1; }},
        {"tlb_entries", [](SystemConfig &c) { c.tlb_entries *= 2; }},
        {"tlb_assoc", [](SystemConfig &c) { c.tlb_assoc *= 2; }},
        {"page_mode",
         [](SystemConfig &c) { c.page_mode = addr::PageMode::Small4K; }},
        {"phys_bytes", [](SystemConfig &c) { c.phys_bytes *= 2; }},
        {"trace_records", [](SystemConfig &c) { ++c.trace_records; }},
        {"warmup_records", [](SystemConfig &c) { ++c.warmup_records; }},
        {"precondition",
         [](SystemConfig &c) { c.precondition = !c.precondition; }},
        {"precondition_budget_fraction",
         [](SystemConfig &c) { c.precondition_budget_fraction += 1; }},
        {"counter_init_mean",
         [](SystemConfig &c) { ++c.counter_init_mean; }},
        {"seed", [](SystemConfig &c) { ++c.seed; }},
        {"tenancy.tenants", [](SystemConfig &c) { c.tenancy.tenants = 2; }},
        {"tenancy.tag_shift",
         [](SystemConfig &c) { c.tenancy.tag_shift = 30; }},
        {"tenancy.strict",
         [](SystemConfig &c) { c.tenancy.strict = !c.tenancy.strict; }},
        {"tenancy.memo_quota",
         [](SystemConfig &c) { ++c.tenancy.memo_quota; }},
        {"recovery.mode",
         [](SystemConfig &c) { c.recovery.mode = mc::RecoveryMode::Full; }},
        {"recovery.max_refetch",
         [](SystemConfig &c) { ++c.recovery.max_refetch; }},
        {"recovery.refetch_backoff_ns",
         [](SystemConfig &c) { c.recovery.refetch_backoff_ns += 1; }},
        {"recovery.storm_window_reads",
         [](SystemConfig &c) { ++c.recovery.storm_window_reads; }},
        {"recovery.storm_threshold",
         [](SystemConfig &c) { ++c.recovery.storm_threshold; }},
        {"recovery.degraded_residency_reads",
         [](SystemConfig &c) { ++c.recovery.degraded_residency_reads; }},
    };
}

} // namespace

TEST(CellKey, EveryFieldChangesTheKey)
{
    // A field cellKey forgot would let two different cells share a name
    // (and, for a dedup keyed on it, a result).  The sizeof asserts next
    // to cellKey catch a new field; this catches a field left unkeyed.
    const sim::SystemConfig base = sim::SystemConfig::timingDefault();
    const std::string key = sim::detail::cellKey(base);
    EXPECT_EQ(key, sim::detail::cellKey(base));
    std::map<std::string, std::string> seen;
    for (const auto &[name, perturb] : fieldPerturbations()) {
        sim::SystemConfig c = base;
        perturb(c);
        const std::string k = sim::detail::cellKey(c);
        EXPECT_NE(k, key) << name << " does not enter the cell key";
        const auto [it, fresh] = seen.emplace(k, name);
        EXPECT_TRUE(fresh) << name << " and " << it->second
                           << " give the same key";
    }
}

TEST(CellKey, FrontEndAndTreeKeysAreProjections)
{
    // Equal cell keys must give equal front-end and tree-lease keys.
    // Over single-field changes: whenever a projection changes, the cell
    // key changes too.
    using sim::detail::TreeLease;
    using sim::detail::frontEndConfig;
    const sim::SystemConfig base = sim::SystemConfig::timingDefault();
    const std::string key = sim::detail::cellKey(base);
    unsigned fe_moved = 0, tree_moved = 0;
    for (const auto &[name, perturb] : fieldPerturbations()) {
        sim::SystemConfig c = base;
        perturb(c);
        const bool same_key = sim::detail::cellKey(c) == key;
        if (!(frontEndConfig(c) == frontEndConfig(base))) {
            ++fe_moved;
            EXPECT_FALSE(same_key) << name;
        }
        if (!(TreeLease::keyOf(c) == TreeLease::keyOf(base))) {
            ++tree_moved;
            EXPECT_FALSE(same_key) << name;
        }
    }
    EXPECT_GT(fe_moved, 0u);
    EXPECT_GT(tree_moved, 0u);

    // Two configurations built by different routes to the same key.
    const sim::SystemConfig a = sim::SystemConfig::functionalDefault();
    sim::SystemConfig b;
    b.mode = sim::SimMode::Functional;
    b.l2 = a.l2;
    b.llc = a.llc;
    b.counter_cache_bytes = a.counter_cache_bytes;
    b.trace_records = a.trace_records;
    b.warmup_records = a.warmup_records;
    ASSERT_EQ(sim::detail::cellKey(a), sim::detail::cellKey(b));
    EXPECT_TRUE(frontEndConfig(a) == frontEndConfig(b));
    EXPECT_TRUE(TreeLease::keyOf(a) == TreeLease::keyOf(b));
}

// ---------------------------------------------------------------------------
// Registry: epoch CSV and histograms
// ---------------------------------------------------------------------------

TEST(ObsRegistry, EpochCsvMatchesGolden)
{
    const std::string dir = freshDir("golden");
    ObsEnv env("epochs", dir, "10");

    std::uint64_t steps = 0;
    {
        auto reg = obs::makeRunRegistry("golden cell");
        ASSERT_NE(reg, nullptr);
        EXPECT_EQ(reg->cell(), "golden-cell");
        reg->addProbe("ticks", [&] { return double(steps); });
        reg->addProbe("twice", [&] { return double(2 * steps); });
        reg->addRate("rate", "twice", "ticks");
        for (int i = 0; i < 25; ++i) {
            ++steps;
            reg->tick();
        }
        reg->recordLatency(obs::LatencyHist::McRead, 100.0);
        reg->recordLatency(obs::LatencyHist::McRead, 100.0);
        reg->recordLatency(obs::LatencyHist::McRead, 100.0);
        reg->recordLatency(obs::LatencyHist::McRead, 100.0);
        reg->finish();
    }

    const std::string csv = slurp(dir + "/epochs-golden-cell.csv");
    EXPECT_EQ(csv, "records,ticks,twice,rate\n"
                   "10,10,20,2\n"
                   "20,20,40,2\n"
                   "25,25,50,2\n");

    const std::string hists = slurp(dir + "/hists-golden-cell.csv");
    EXPECT_EQ(hists.rfind("hist,count,mean,p50,p95,p99,max,b0", 0), 0u);
    EXPECT_NE(hists.find("mc_read_ns,4,100,100,100,100,100"),
              std::string::npos);
    EXPECT_NE(hists.find("dram_access_ns,0,0,0,0,0,0"), std::string::npos);
    fs::remove_all(dir);
}

TEST(ObsRegistry, RingKeepsMostRecentEpochs)
{
    const std::string dir = freshDir("ring");
    setenv("RMCC_OBS_MAX_EPOCHS", "2", 1);
    ObsEnv env("epochs", dir, "10");

    std::uint64_t steps = 0;
    {
        auto reg = obs::makeRunRegistry("ring");
        ASSERT_NE(reg, nullptr);
        reg->addProbe("ticks", [&] { return double(steps); });
        for (int i = 0; i < 40; ++i) {
            ++steps;
            reg->tick();
        }
        EXPECT_EQ(reg->epochsDropped(), 2u);
        reg->finish();
    }
    const std::vector<double> rows =
        csvColumn(slurp(dir + "/epochs-ring.csv"), "records");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0], 30.0);
    EXPECT_DOUBLE_EQ(rows[1], 40.0);
    fs::remove_all(dir);
}

TEST(ObsRegistry, RateIsPerEpochDelta)
{
    const std::string dir = freshDir("rate");
    ObsEnv env("epochs", dir, "10");
    std::uint64_t steps = 0, hits = 0;
    {
        auto reg = obs::makeRunRegistry("rate");
        ASSERT_NE(reg, nullptr);
        reg->addProbe("hits", [&] { return double(hits); });
        reg->addProbe("lookups", [&] { return double(steps); });
        reg->addRate("hit_rate", "hits", "lookups");
        for (int i = 0; i < 20; ++i) {
            ++steps;
            hits += (i < 10) ? 0 : 1; // all hits in the second epoch
            reg->tick();
        }
        reg->finish();
    }
    const std::vector<double> rate =
        csvColumn(slurp(dir + "/epochs-rate.csv"), "hit_rate");
    ASSERT_EQ(rate.size(), 2u);
    EXPECT_DOUBLE_EQ(rate[0], 0.0); // first epoch: 0/10
    EXPECT_DOUBLE_EQ(rate[1], 1.0); // second epoch delta: 10/10
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// End-to-end: simulators under RMCC_OBS
// ---------------------------------------------------------------------------

TEST(ObsEndToEnd, EpochSeriesShowsRmccHitRate)
{
    const std::string dir = freshDir("e2e");
    ObsEnv env("epochs", dir, "5000");

    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Functional);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    (void)sim::runOne(w->name, trace, nc);

    // Exactly one epochs CSV + one hists CSV for the single cell.
    ASSERT_TRUE(fs::is_directory(dir));
    std::string epochs_path, hists_path;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("epochs-", 0) == 0)
            epochs_path = e.path().string();
        if (name.rfind("hists-", 0) == 0)
            hists_path = e.path().string();
    }
    ASSERT_FALSE(epochs_path.empty());
    ASSERT_FALSE(hists_path.empty());
    EXPECT_NE(epochs_path.find("canneal-functional-morphable-rmcc"),
              std::string::npos);

    const std::string csv = slurp(epochs_path);
    const std::vector<double> lookups = csvColumn(csv, "memo.lookups");
    const std::vector<double> hits = csvColumn(csv, "memo.hits");
    const std::vector<double> rate = csvColumn(csv, "memo.hit_rate");
    ASSERT_GE(lookups.size(), 2u);
    ASSERT_EQ(hits.size(), lookups.size());
    ASSERT_EQ(rate.size(), lookups.size());
    // Cumulative counters rise; the memo table is live and hitting.
    EXPECT_GT(lookups.back(), lookups.front());
    EXPECT_GT(hits.back(), 0.0);
    EXPECT_GT(hits.back(), hits.front());
    for (const double r : rate) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
    // The MC latency histograms saw real traffic.
    const std::string hists = slurp(hists_path);
    const std::vector<double> counts = csvColumn(hists, "count");
    // mc_read, dram, mac_verify, recovery, trace_io
    ASSERT_EQ(counts.size(), 5u);
    EXPECT_GT(counts[0], 0.0);
    EXPECT_GT(counts[1], 0.0);
    // No faults injected: the recovery histogram exists but stays empty.
    EXPECT_DOUBLE_EQ(counts[3], 0.0);
    // In-RAM trace: no spill I/O was timed.
    EXPECT_DOUBLE_EQ(counts[4], 0.0);
    fs::remove_all(dir);
}

TEST(ObsEndToEnd, LlcColumnsCountTheMeasuredLoopAfterWarmup)
{
    // A cell replays the trace's front-end recording, so its llc.*
    // columns come from the loop's count of the replayed outcomes.  They
    // must equal a per-epoch count over a standalone hierarchy that sees
    // the trace once, in order, after the RMCC warm-up.
    const std::string dir = freshDir("llc");
    ObsEnv env("epochs", dir, "5000");
    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Timing);
    shrink(nc.cfg);
    ASSERT_TRUE(nc.cfg.precondition);
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    (void)sim::runOne(w->name, trace, nc);

    std::string epochs_path;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().rfind("epochs-", 0) == 0)
            epochs_path = e.path().string();
    ASSERT_FALSE(epochs_path.empty());
    const std::string csv = slurp(epochs_path);
    const std::vector<double> records = csvColumn(csv, "records");
    const std::vector<double> accesses = csvColumn(csv, "llc.accesses");
    const std::vector<double> misses = csvColumn(csv, "llc.misses");
    ASSERT_GE(records.size(), 2u);
    ASSERT_EQ(accesses.size(), records.size());
    ASSERT_EQ(misses.size(), records.size());

    // Cumulative LLC counts after each record, from a standalone
    // hierarchy fed by the cell's front-end mapper.
    addr::PageMapper mapper =
        sim::detail::makePageMapper(sim::detail::frontEndConfig(nc.cfg));
    cache::Hierarchy hier(nc.cfg.l1, nc.cfg.l2, nc.cfg.llc);
    std::vector<double> acc_after, miss_after;
    const auto cur = trace.cursor();
    for (trace::TraceWindow tw = cur->next(); tw.count != 0;
         tw = cur->next()) {
        for (std::size_t k = 0; k < tw.count; ++k) {
            const trace::Record &r = tw.data[k];
            hier.access(mapper.translate(r.vaddr), r.is_write);
            acc_after.push_back(double(hier.llc().accesses()));
            miss_after.push_back(double(hier.llc().misses()));
        }
    }
    for (std::size_t row = 0; row < records.size(); ++row) {
        const auto n = static_cast<std::size_t>(records[row]);
        ASSERT_GE(n, 1u);
        ASSERT_LE(n, acc_after.size());
        EXPECT_EQ(accesses[row], acc_after[n - 1]) << "records=" << n;
        EXPECT_EQ(misses[row], miss_after[n - 1]) << "records=" << n;
    }
    EXPECT_GT(misses.back(), misses.front());
    clearObsEnv();
    fs::remove_all(dir);
}

TEST(ObsEndToEnd, FullModeWritesLoadableTraceJson)
{
    const std::string dir = freshDir("full");
    ObsEnv env("full", dir, "5000");

    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Functional);
    shrink(nc.cfg);
    nc.cfg.trace_records = 30000;
    nc.cfg.warmup_records = 15000;
    const auto *w = wl::findWorkload("mcf");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    (void)sim::runOne(w->name, trace, nc);

    obs::reresolveObs(); // flushes trace.json
    const std::string doc = expectValidChromeTrace(dir + "/trace.json");
    EXPECT_NE(doc.find("\"cell:mcf-functional-morphable-rmcc"),
              std::string::npos);
    EXPECT_NE(doc.find("\"records\":30000"), std::string::npos);
    clearObsEnv();
    fs::remove_all(dir);
}

TEST(ObsEndToEnd, OffIsBitIdenticalAndWritesNothing)
{
    clearObsEnv();

    // One fig03-style cell (functional Morphable baseline) and one
    // fig13-style cell (timing RMCC); both shrunk.
    std::vector<sim::NamedConfig> cells = {
        sim::baselineConfig(sim::SimMode::Functional,
                            ctr::SchemeKind::Morphable),
        sim::rmccConfig(sim::SimMode::Timing),
    };
    for (auto &nc : cells) {
        shrink(nc.cfg);
        nc.cfg.trace_records = 40000;
        nc.cfg.warmup_records = 20000;
    }
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, 40000, 42);

    for (const sim::NamedConfig &nc : cells) {
        const sim::SimResult baseline = sim::runOne(w->name, trace, nc);

        const std::string dir = freshDir("off");
        {
            ObsEnv env("off", dir);
            const sim::SimResult off = sim::runOne(w->name, trace, nc);
            EXPECT_EQ(off.stats.all(), baseline.stats.all()) << nc.label;
            EXPECT_EQ(off.instructions, baseline.instructions);
            EXPECT_DOUBLE_EQ(off.elapsed_ns, baseline.elapsed_ns);
            EXPECT_EQ(fileCount(dir), 0u) << "RMCC_OBS=off wrote files";
        }
        {
            // Sampling must only read: epochs/full modes report the
            // exact same simulated numbers.
            const std::string dir2 = freshDir("epochs_identity");
            ObsEnv env("epochs", dir2);
            const sim::SimResult on = sim::runOne(w->name, trace, nc);
            EXPECT_EQ(on.stats.all(), baseline.stats.all()) << nc.label;
            EXPECT_DOUBLE_EQ(on.elapsed_ns, baseline.elapsed_ns);
            EXPECT_GT(fileCount(dir2), 0u);
            fs::remove_all(dir2);
        }
        fs::remove_all(dir);
    }
}

TEST(ObsEndToEnd, QuietRunsMatchThePerRecordPath)
{
    // With obs off, runTiming hands each run of quiet records (L1/L2
    // hits with no TLB miss and no writeback) to one CpuModel call; with
    // obs on, every record takes the per-record path.  On a
    // cache-resident trace, with a warm-up boundary that is no multiple
    // of the 8192-record poll stride, both must give the same result.
    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Timing);
    shrink(nc.cfg);
    nc.cfg.trace_records = 40000;
    nc.cfg.warmup_records = 20001;
    const auto *w = wl::findWorkload("omnetpp");
    const auto trace = wl::generateTrace(*w, 40000, 42);

    clearObsEnv();
    const sim::SimResult runs = sim::runOne(w->name, trace, nc);
    const std::string dir = freshDir("quiet");
    sim::SimResult per_record;
    {
        ObsEnv env("epochs", dir);
        per_record = sim::runOne(w->name, trace, nc);
    }
    EXPECT_GT(fileCount(dir), 0u) << "obs did not run";
    EXPECT_EQ(runs.stats.all(), per_record.stats.all());
    EXPECT_EQ(runs.instructions, per_record.instructions);
    EXPECT_EQ(runs.elapsed_ns, per_record.elapsed_ns);
    EXPECT_GT(runs.stats.get("sim.llc_misses"), 0.0);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// TraceBuffer drop accounting
// ---------------------------------------------------------------------------

TEST(TraceBufferDrops, MoveTransfersDropCounter)
{
    trace::TraceBuffer a(2);
    a.append(0x1000, false, 0);
    a.append(0x2000, false, 0);
    a.append(0x3000, false, 0);
    a.append(0x4000, false, 0);
    EXPECT_EQ(a.dropped(), 2u);
    EXPECT_EQ(a.size(), 2u);

    trace::TraceBuffer b = std::move(a);
    EXPECT_EQ(b.dropped(), 2u);
    EXPECT_EQ(a.dropped(), 0u); // source no longer owns the count
    EXPECT_EQ(b.size(), 2u);

    trace::TraceBuffer c(1);
    c = std::move(b);
    EXPECT_EQ(c.dropped(), 2u);
    EXPECT_EQ(b.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

TEST(LogLevel, ParsesAllSpellings)
{
    using util::LogLevel;
    EXPECT_EQ(util::logLevelFromString("debug"), LogLevel::Debug);
    EXPECT_EQ(util::logLevelFromString("info"), LogLevel::Info);
    EXPECT_EQ(util::logLevelFromString("warn"), LogLevel::Warn);
    EXPECT_EQ(util::logLevelFromString("error"), LogLevel::Error);
    EXPECT_EQ(util::logLevelFromString("silent"), LogLevel::Silent);
    EXPECT_THROW(util::logLevelFromString("verbose"), std::runtime_error);
    EXPECT_THROW(util::logLevelFromString("WARN"), std::runtime_error);
}

TEST(LogLevel, EnvControlsFiltering)
{
    setenv("RMCC_LOG_LEVEL", "error", 1);
    util::resetLogLevelForTest();
    EXPECT_EQ(util::logLevel(), util::LogLevel::Error);
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Warn));
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Info));
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Error));

    setenv("RMCC_LOG_LEVEL", "debug", 1);
    util::resetLogLevelForTest();
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Debug));

    unsetenv("RMCC_LOG_LEVEL");
    util::resetLogLevelForTest();
    EXPECT_EQ(util::logLevel(), util::LogLevel::Info); // default
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug));
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Warn));
}

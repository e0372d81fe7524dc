#include "obs/registry.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace rmcc::obs
{

namespace
{

//! Per-kind cap on instant events forwarded to the trace writer.  A
//! pathological run can overflow counters millions of times; the first
//! few hundred instants tell the story, the counter tells the total.
constexpr std::uint64_t kInstantTraceCap = 256;

//! Chrome-trace lane for the calling thread (see TraceWriter docs).
int
laneTid()
{
    return util::currentWorkerId() + 1;
}

void
csvNumber(std::ofstream &f, double v)
{
    // Integral probe values (the common case: counters) print exactly;
    // everything else gets enough digits to round-trip visually.
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        f << buf;
    } else {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        f << buf;
    }
}

} // namespace

ObsConfig
obsConfigFromEnv()
{
    ObsConfig cfg;
    const std::string mode =
        util::envChoice("RMCC_OBS", {"off", "epochs", "full"}, "off");
    cfg.mode = mode == "full"     ? ObsMode::Full
               : mode == "epochs" ? ObsMode::Epochs
                                  : ObsMode::Off;
    if (const auto dir = util::envString("RMCC_OBS_DIR"))
        cfg.dir = *dir;
    if (const auto v = util::envPositive("RMCC_OBS_EPOCH_RECORDS"))
        cfg.epoch_records = *v;
    if (const auto v = util::envPositive("RMCC_OBS_MAX_EPOCHS"))
        cfg.max_epochs = *v;
    return cfg;
}

const char *
latencyHistName(LatencyHist h)
{
    switch (h) {
    case LatencyHist::McRead: return "mc_read_ns";
    case LatencyHist::Dram: return "dram_access_ns";
    case LatencyHist::MacVerify: return "mac_verify_ns";
    case LatencyHist::Recovery: return "recovery_ns";
    case LatencyHist::TraceIo: return "trace_io_ns";
    case LatencyHist::kCount: break;
    }
    return "?";
}

const char *
instantKindName(InstantKind k)
{
    switch (k) {
    case InstantKind::CounterOverflowL0: return "counter_overflow_l0";
    case InstantKind::CounterOverflowHi: return "counter_overflow_hi";
    case InstantKind::Rebase: return "rebase";
    case InstantKind::FaultDetected: return "fault_detected";
    case InstantKind::FaultRecovered: return "fault_recovered";
    case InstantKind::MemoQuarantine: return "memo_quarantine";
    case InstantKind::DegradedEnter: return "degraded_enter";
    case InstantKind::DegradedExit: return "degraded_exit";
    case InstantKind::kCount: break;
    }
    return "?";
}

std::string
sanitizeCellName(const std::string &s)
{
    std::string out = s;
    for (char &c : out) {
        const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '+' || c == '-';
        if (!ok)
            c = '-';
    }
    return out;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry(std::string cell, const ObsConfig &cfg, Session *session)
    : cell_(sanitizeCellName(cell)),
      mode_(cfg.mode),
      dir_(cfg.dir),
      epoch_records_(cfg.epoch_records),
      max_epochs_(cfg.max_epochs),
      session_(session)
{
    if (mode_ == ObsMode::Full && session_ && session_->trace())
        start_us_ = session_->trace()->nowUs();
}

Registry::~Registry()
{
    finish();
}

void
Registry::addProbe(std::string name, std::function<double()> fn)
{
    probes_.push_back({std::move(name), std::move(fn)});
}

void
Registry::addRate(std::string name, const std::string &num,
                  const std::string &den)
{
    std::size_t num_idx = probes_.size();
    std::size_t den_idx = probes_.size();
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        if (probes_[i].name == num)
            num_idx = i;
        if (probes_[i].name == den)
            den_idx = i;
    }
    if (num_idx == probes_.size() || den_idx == probes_.size())
        util::panic("obs: rate '%s' references unknown probe ('%s'/'%s')",
                    name.c_str(), num.c_str(), den.c_str());
    rates_.push_back({std::move(name), num_idx, den_idx});
}

void
Registry::snapshot()
{
    last_snapshot_records_ = records_;
    if (cols_.empty()) {
        cols_.resize(probes_.size() + rates_.size());
        for (auto &c : cols_)
            c.reserve(std::min<std::uint64_t>(max_epochs_, 1024));
        row_records_.reserve(std::min<std::uint64_t>(max_epochs_, 1024));
        prev_values_.assign(probes_.size(), 0.0);
    }

    std::vector<double> vals(probes_.size());
    for (std::size_t i = 0; i < probes_.size(); ++i)
        vals[i] = probes_[i].fn();

    const std::uint64_t slot = rows_ < max_epochs_
                                   ? rows_
                                   : head_; // overwrite the oldest row
    auto store = [&](std::vector<double> &col, double v) {
        if (slot < col.size())
            col[slot] = v;
        else
            col.push_back(v);
    };

    store(row_records_, static_cast<double>(records_));
    for (std::size_t i = 0; i < probes_.size(); ++i)
        store(cols_[i], vals[i]);
    for (std::size_t r = 0; r < rates_.size(); ++r) {
        double rate = 0.0;
        if (have_prev_) {
            const double dn = vals[rates_[r].num_idx] -
                              prev_values_[rates_[r].num_idx];
            const double dd = vals[rates_[r].den_idx] -
                              prev_values_[rates_[r].den_idx];
            if (dd > 0.0)
                rate = dn / dd;
        } else if (vals[rates_[r].den_idx] > 0.0) {
            // First epoch: rate over everything seen so far.
            rate = vals[rates_[r].num_idx] / vals[rates_[r].den_idx];
        }
        store(cols_[probes_.size() + r], rate);
    }

    if (rows_ < max_epochs_) {
        ++rows_;
    } else {
        head_ = (head_ + 1) % max_epochs_;
        ++ring_dropped_;
    }
    prev_values_ = std::move(vals);
    have_prev_ = true;
}

void
Registry::instant(InstantKind k)
{
    const auto idx = static_cast<std::size_t>(k);
    ++instant_counts_[idx];
    if (mode_ == ObsMode::Full && session_ && session_->trace() &&
        instant_counts_[idx] <= kInstantTraceCap) {
        session_->trace()->instant(
            std::string(instantKindName(k)) + ":" + cell_, laneTid());
    }
}

void
Registry::writeCsvs()
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        util::warn("obs: cannot create dir %s: %s", dir_.c_str(),
                   ec.message().c_str());
        return;
    }

    const std::string epochs_path = dir_ + "/epochs-" + cell_ + ".csv";
    std::ofstream ef(epochs_path);
    if (!ef) {
        util::warn("obs: cannot write %s", epochs_path.c_str());
        return;
    }
    ef << "records";
    for (const Probe &p : probes_)
        ef << "," << p.name;
    for (const Rate &r : rates_)
        ef << "," << r.name;
    ef << "\n";
    for (std::uint64_t row = 0; row < rows_; ++row) {
        const std::uint64_t slot =
            rows_ < max_epochs_ ? row : (head_ + row) % max_epochs_;
        csvNumber(ef, row_records_[slot]);
        for (const auto &col : cols_) {
            ef << ",";
            csvNumber(ef, col[slot]);
        }
        ef << "\n";
    }

    const std::string hists_path = dir_ + "/hists-" + cell_ + ".csv";
    std::ofstream hf(hists_path);
    if (!hf) {
        util::warn("obs: cannot write %s", hists_path.c_str());
        return;
    }
    hf << "hist,count,mean,p50,p95,p99,max";
    for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b)
        hf << ",b" << b;
    hf << "\n";
    for (std::size_t h = 0; h < static_cast<std::size_t>(LatencyHist::kCount);
         ++h) {
        const Log2Histogram &hist = hists_[h];
        const HistSummary s = hist.summary();
        hf << latencyHistName(static_cast<LatencyHist>(h));
        hf << ",";
        csvNumber(hf, static_cast<double>(s.count));
        for (const double v : {s.mean, s.p50, s.p95, s.p99, s.max}) {
            hf << ",";
            csvNumber(hf, v);
        }
        for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
            hf << ",";
            csvNumber(hf, static_cast<double>(hist.bucketCount(b)));
        }
        hf << "\n";
    }
}

void
Registry::finish()
{
    if (finished_)
        return;
    finished_ = true;

    // Final partial epoch so short runs still produce rows.
    if (records_ > last_snapshot_records_ || rows_ == 0)
        snapshot();

    // Internal bookkeeping lands in the histogram CSV's sibling columns
    // via the trace args; the ring-drop count at least gets a warning.
    if (ring_dropped_ > 0)
        util::warn("obs: cell %s dropped %llu oldest epoch row(s) "
                   "(raise RMCC_OBS_MAX_EPOCHS or RMCC_OBS_EPOCH_RECORDS)",
                   cell_.c_str(),
                   static_cast<unsigned long long>(ring_dropped_));

    writeCsvs();

    if (mode_ == ObsMode::Full && session_ && session_->trace()) {
        TraceWriter *tw = session_->trace();
        const double end_us = tw->nowUs();
        std::string args = "{\"records\":" + std::to_string(records_);
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(InstantKind::kCount); ++k) {
            if (instant_counts_[k] > 0)
                args += std::string(",\"") +
                        instantKindName(static_cast<InstantKind>(k)) +
                        "\":" + std::to_string(instant_counts_[k]);
        }
        args += "}";
        tw->complete("cell:" + cell_, start_us_,
                     std::max(0.0, end_us - start_us_), laneTid(), args);
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(ObsConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.mode == ObsMode::Off)
        return;
    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (ec)
        util::warn("obs: cannot create dir %s: %s", cfg_.dir.c_str(),
                   ec.message().c_str());
    if (cfg_.mode == ObsMode::Full)
        trace_ = std::make_unique<TraceWriter>();
}

Session::~Session()
{
    flushTrace();
}

void
Session::instant(InstantKind k, const std::string &detail)
{
    if (!trace_)
        return;
    const auto idx = static_cast<std::size_t>(k);
    {
        util::MutexLock lock(mutex_);
        if (++instant_counts_[idx] > kInstantTraceCap)
            return;
    }
    std::string name = instantKindName(k);
    if (!detail.empty())
        name += ":" + detail;
    trace_->instant(name, laneTid());
}

void
Session::flushTrace()
{
    util::MutexLock lock(mutex_);
    if (!trace_ || trace_flushed_ || trace_->size() == 0)
        return;
    trace_flushed_ = true;
    trace_->writeJson(cfg_.dir + "/trace.json");
}

// ---------------------------------------------------------------------------
// Global session management
// ---------------------------------------------------------------------------

namespace
{

util::Mutex g_session_mutex;
std::unique_ptr<Session> g_session RMCC_GUARDED_BY(g_session_mutex);

Session &
sessionLocked() RMCC_REQUIRES(g_session_mutex)
{
    if (!g_session)
        g_session = std::make_unique<Session>(obsConfigFromEnv());
    return *g_session;
}

//! Flushes the trace at process exit even if no one calls flushTrace().
struct SessionFlusher
{
    ~SessionFlusher()
    {
        util::MutexLock lock(g_session_mutex);
        g_session.reset();
    }
} g_session_flusher;

} // namespace

Session &
session()
{
    util::MutexLock lock(g_session_mutex);
    return sessionLocked();
}

void
reresolveObs()
{
    util::MutexLock lock(g_session_mutex);
    g_session.reset(); // dtor flushes any pending trace
}

std::unique_ptr<Registry>
makeRunRegistry(const std::string &cell)
{
    util::MutexLock lock(g_session_mutex);
    Session &s = sessionLocked();
    if (s.config().mode == ObsMode::Off)
        return nullptr;
    return std::make_unique<Registry>(cell, s.config(), &s);
}

std::unique_ptr<Registry>
makeRunRegistry(const std::function<std::string()> &cell)
{
    {
        util::MutexLock lock(g_session_mutex);
        if (sessionLocked().config().mode == ObsMode::Off)
            return nullptr;
    }
    return makeRunRegistry(cell());
}

void
instantGlobal(InstantKind k, const std::string &detail)
{
    util::MutexLock lock(g_session_mutex);
    Session &s = sessionLocked();
    if (s.config().mode != ObsMode::Full)
        return;
    s.instant(k, detail);
}

} // namespace rmcc::obs

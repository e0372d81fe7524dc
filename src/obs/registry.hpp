/**
 * @file
 * The observability facade: epoch time-series sampling, latency
 * histograms, and rare-event tracing for one simulation run, behind a
 * narrow interface whose disabled cost is one branch on a cached pointer.
 *
 * Modes (RMCC_OBS, strict-parsed):
 *   off    (default) nothing is created; makeRunRegistry() returns null
 *          and every instrumentation site costs `if (obs_)` on a pointer
 *          that is never set.
 *   epochs per-run probe snapshots every RMCC_OBS_EPOCH_RECORDS trace
 *          records into a columnar ring buffer, flushed as one CSV per
 *          experiment cell, plus latency-histogram CSVs.
 *   full   epochs plus Chrome trace-event JSON: one duration event per
 *          cell, capped instant events for rare occurrences (counter
 *          overflow, rebase, fault detection), with thread-pool worker
 *          lanes.
 *
 * Output lands in RMCC_OBS_DIR (default "rmcc-obs", created on demand):
 *   epochs-<cell>.csv   record index + probe columns + rate columns
 *   hists-<cell>.csv    per-histogram summary + log2 bucket counts
 *   trace.json          Chrome trace (full mode, written at flush/exit)
 *
 * Threading: one Registry belongs to one simulation run on one thread.
 * The process-wide Session (trace writer, global instants) is
 * thread-safe.  Probes only *read* component state, so enabling obs
 * cannot perturb simulated results — the RMCC_OBS=off bit-identity
 * guarantee extends to the sampled values themselves.
 */
#ifndef RMCC_OBS_REGISTRY_HPP
#define RMCC_OBS_REGISTRY_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/trace_writer.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rmcc::obs
{

/** RMCC_OBS policy. */
enum class ObsMode
{
    Off,    //!< No observability (default).
    Epochs, //!< Epoch CSV + histograms per cell.
    Full,   //!< Epochs plus Chrome trace events.
};

/** Parsed observability configuration. */
struct ObsConfig
{
    ObsMode mode = ObsMode::Off;
    std::string dir = "rmcc-obs";       //!< RMCC_OBS_DIR.
    std::uint64_t epoch_records = 10000; //!< RMCC_OBS_EPOCH_RECORDS.
    std::uint64_t max_epochs = 4096;     //!< RMCC_OBS_MAX_EPOCHS (ring cap).
};

/**
 * Read RMCC_OBS / RMCC_OBS_DIR / RMCC_OBS_EPOCH_RECORDS /
 * RMCC_OBS_MAX_EPOCHS with strict parsing.
 * @throws std::runtime_error on malformed values (util::env semantics).
 */
ObsConfig obsConfigFromEnv();

/** Latency histograms every run carries. */
enum class LatencyHist
{
    McRead,    //!< Secure-MC read: request to data usable, ns.
    Dram,      //!< Single DRAM transfer: issue to burst end, ns.
    MacVerify, //!< MAC verification chain: request to verified, ns.
    Recovery,  //!< Fault recovery: detection to re-served (or given up), ns.
    TraceIo,   //!< Spilled-trace window advance: host ns blocked in I/O.
    kCount,
};

/** Human-readable histogram name (CSV row label). */
const char *latencyHistName(LatencyHist h);

/** Rare occurrences reported as instant trace events and counters. */
enum class InstantKind
{
    CounterOverflowL0, //!< L0 counter overflow (block re-encryption).
    CounterOverflowHi, //!< Higher-level counter overflow.
    Rebase,            //!< Deliberate RMCC relevel/rebase of a block.
    FaultDetected,     //!< Detection oracle flagged a perturbed read.
    FaultRecovered,    //!< Recovery re-served a read after a detection.
    MemoQuarantine,    //!< A poisoned memo-table value was quarantined.
    DegradedEnter,     //!< RecoveryPolicy entered degraded mode.
    DegradedExit,      //!< Degraded-mode residency expired.
    kCount,
};

/** Instant-kind display name. */
const char *instantKindName(InstantKind k);

class Session;

/**
 * Per-run observability context: probes, epoch ring buffer, histograms,
 * instant-event counters, and the run's duration trace event.
 */
class Registry
{
  public:
    /** Created via makeRunRegistry(); cfg.mode must not be Off. */
    Registry(std::string cell, const ObsConfig &cfg, Session *session);

    /** Flushes if finish() was not called explicitly. */
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Cell label this run reports under. */
    const std::string &cell() const { return cell_; }

    /**
     * Register a probe sampled at every epoch boundary.  Probes must be
     * pure reads of state outliving the registry.  Registration order is
     * CSV column order.
     */
    void addProbe(std::string name, std::function<double()> fn);

    /**
     * Register a derived per-epoch rate column: delta(num)/delta(den)
     * between consecutive snapshots (0 when den does not advance).  num
     * and den name previously added probes.
     */
    void addRate(std::string name, const std::string &num,
                 const std::string &den);

    /**
     * Advance by one trace record; snapshots all probes every
     * epoch_records ticks.  The per-record cost between boundaries is one
     * increment and one compare.
     */
    void tick()
    {
        if (++records_ - last_snapshot_records_ >= epoch_records_)
            snapshot();
    }

    /** Record a latency sample (ns). */
    void recordLatency(LatencyHist h, double ns)
    {
        hists_[static_cast<std::size_t>(h)].add(ns);
    }

    /** Direct histogram access (tests, summaries). */
    const Log2Histogram &hist(LatencyHist h) const
    {
        return hists_[static_cast<std::size_t>(h)];
    }

    /**
     * Report one rare occurrence: counts always; forwards to the trace
     * writer (full mode) up to a per-kind cap so bursts cannot bloat the
     * trace.
     */
    void instant(InstantKind k);

    /** Occurrences of a kind reported through this registry. */
    std::uint64_t instantCount(InstantKind k) const
    {
        return instant_counts_[static_cast<std::size_t>(k)];
    }

    /** Epoch rows evicted from the ring buffer (oldest-first). */
    std::uint64_t epochsDropped() const { return ring_dropped_; }

    /**
     * Take a final (possibly partial-epoch) snapshot, write the epoch and
     * histogram CSVs, and emit the run's duration trace event.
     * Idempotent; also invoked by the destructor.
     */
    void finish();

  private:
    void snapshot();
    void writeCsvs();

    std::string cell_;
    ObsMode mode_;
    std::string dir_;
    std::uint64_t epoch_records_;
    std::uint64_t max_epochs_;
    Session *session_;

    struct Probe
    {
        std::string name;
        std::function<double()> fn;
    };
    struct Rate
    {
        std::string name;
        std::size_t num_idx;
        std::size_t den_idx;
    };
    std::vector<Probe> probes_;
    std::vector<Rate> rates_;

    //! Columnar ring buffer: one column per probe, then one per rate;
    //! row r of the ring is snapshot (head_ + r) % rows_ in time order.
    std::vector<std::vector<double>> cols_;
    std::vector<double> row_records_; //!< Record index column (ring too).
    std::uint64_t rows_ = 0;          //!< Valid rows in the ring.
    std::uint64_t head_ = 0;          //!< Oldest row when ring is full.
    std::uint64_t ring_dropped_ = 0;

    std::vector<double> prev_values_; //!< Probe values at last snapshot.
    bool have_prev_ = false;

    std::uint64_t records_ = 0;
    std::uint64_t last_snapshot_records_ = 0;

    Log2Histogram hists_[static_cast<std::size_t>(LatencyHist::kCount)];
    std::uint64_t
        instant_counts_[static_cast<std::size_t>(InstantKind::kCount)] = {};

    double start_us_ = 0.0; //!< Trace timebase at construction (full mode).
    bool finished_ = false;
};

/**
 * Process-wide observability session: the parsed configuration, the
 * shared trace writer (full mode), and rare-event instants raised outside
 * any single run (fault detection).  Thread-safe.
 */
class Session
{
  public:
    explicit Session(ObsConfig cfg);

    /** Flushes the trace on destruction. */
    ~Session();

    const ObsConfig &config() const { return cfg_; }

    /** The shared trace writer; null unless mode is Full. */
    TraceWriter *trace() { return trace_.get(); }

    /**
     * Global instant event (per-kind capped); no-op unless mode is Full.
     * @param detail appended to the event name for context.
     */
    void instant(InstantKind k, const std::string &detail);

    /** Write trace.json into the obs dir if any events were recorded. */
    void flushTrace();

  private:
    ObsConfig cfg_;                      //!< Const after construction.
    std::unique_ptr<TraceWriter> trace_; //!< Const after construction;
                                         //!< TraceWriter locks internally.
    util::Mutex mutex_;
    std::uint64_t instant_counts_[static_cast<std::size_t>(
        InstantKind::kCount)] RMCC_GUARDED_BY(mutex_) = {};
    bool trace_flushed_ RMCC_GUARDED_BY(mutex_) = false;
};

/**
 * The process-wide session, lazily resolved from the environment on first
 * use (thread-safe).
 * @throws std::runtime_error on malformed RMCC_OBS* variables.
 */
Session &session();

/**
 * Flush the current session's trace and re-read the environment on next
 * use.  Test/bench hook, mirroring crypto::reresolveCryptoDispatch();
 * callers must not hold live Registry instances across it.
 */
void reresolveObs();

/**
 * Create the observability context for one simulation run, or null when
 * RMCC_OBS=off — the caller caches the pointer and pays one branch per
 * instrumentation site.
 * @param cell stable label for the (workload, configuration) cell.
 */
std::unique_ptr<Registry> makeRunRegistry(const std::string &cell);

/** As above, but calls cell() for the label only when obs is on. */
std::unique_ptr<Registry>
makeRunRegistry(const std::function<std::string()> &cell);

/**
 * Raise a global instant event if a session exists in full mode.  Safe on
 * any thread; resolves the session lazily (strict env parsing applies).
 */
void instantGlobal(InstantKind k, const std::string &detail);

/**
 * Replace characters outside [A-Za-z0-9._+-] with '-' so cell labels are
 * safe file-name components.
 */
std::string sanitizeCellName(const std::string &s);

} // namespace rmcc::obs

#endif // RMCC_OBS_REGISTRY_HPP

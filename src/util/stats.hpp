/**
 * @file
 * Statistics primitives used by the simulators and benches: scalar counters
 * with ratio helpers, running means, histograms, and geometric means, in the
 * spirit of gem5's stats package but sized for this project.
 */
#ifndef RMCC_UTIL_STATS_HPP
#define RMCC_UTIL_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rmcc::util
{

/** Running mean/min/max/sum accumulator over double samples. */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples seen. */
    std::uint64_t count() const { return n_; }

    /** Sum of all samples (0 when empty). */
    double sum() const { return sum_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Smallest sample (+inf when empty). */
    double min() const { return min_; }

    /** Largest sample (-inf when empty). */
    double max() const { return max_; }

    /** Reset to the empty state. */
    void reset();

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double min_ = 1.0e300;
    double max_ = -1.0e300;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets. */
class Histogram
{
  public:
    /** Create nbuckets equal-width buckets spanning [lo, hi). */
    Histogram(double lo, double hi, std::size_t nbuckets);

    /** Record one sample. */
    void add(double x);

    /** Total samples including out-of-range ones. */
    std::uint64_t count() const { return total_; }

    /** Count in bucket i (0 <= i < buckets()). */
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }

    /** Number of in-range buckets. */
    std::size_t buckets() const { return counts_.size(); }

    /** Samples below lo / at-or-above hi. */
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Approximate p-quantile (0 <= p <= 1) from bucket midpoints. */
    double quantile(double p) const;

  private:
    double lo_, hi_, width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

/** Geometric mean of strictly positive values; zeros are skipped. */
double geomean(const std::vector<double> &xs);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &xs);

class StatSet;

/**
 * Pre-resolved index of one named counter inside one StatSet.
 *
 * A handle is obtained once per (set, name) via StatSet::handle() — the
 * only operation that touches the string registry — and then increments a
 * plain double by index.  Handles are NOT portable across StatSet
 * instances: each set assigns slots in its own registration order.
 */
class StatHandle
{
  public:
    StatHandle() = default;

    /** True once resolved by StatSet::handle(). */
    bool valid() const { return idx_ != kInvalid; }

  private:
    friend class StatSet;
    static constexpr std::uint32_t kInvalid = 0xffffffffu;

    explicit StatHandle(std::uint32_t idx) : idx_(idx) {}

    std::uint32_t idx_ = kInvalid;
};

/**
 * Named scalar statistics bag, used by the simulators to report counters
 * (accesses, hits, misses, traffic) without a rigid struct per experiment.
 *
 * Storage is a dense slot array (gem5-style): every name resolves once to
 * a StatHandle, and the handle-based inc()/set()/get() touch only
 * values_[idx].  The string overloads remain for registration, reporting,
 * and tests; per-event hot paths must pre-resolve handles instead.  A
 * registered-but-never-written slot does not appear in all()/merge()/diff()
 * output, so pre-resolving handles cannot change reported results.
 */
class StatSet
{
  public:
    /**
     * Resolve (registering on first use) the slot for a name.  This is
     * the only string-keyed registry lookup; it is counted in
     * stringLookups() so tests can prove hot loops never take it.
     */
    StatHandle handle(const std::string &name);

    /** Add delta (default 1) to the counter behind a resolved handle. */
    void inc(StatHandle h, double delta = 1.0)
    {
        values_[h.idx_] += delta;
        written_[h.idx_] = 1;
    }

    /** Overwrite the counter behind a resolved handle. */
    void set(StatHandle h, double value)
    {
        values_[h.idx_] = value;
        written_[h.idx_] = 1;
    }

    /** Read the counter behind a resolved handle (0 if never written). */
    double get(StatHandle h) const { return values_[h.idx_]; }

    /** Add delta (default 1) to the named counter, creating it at 0. */
    void inc(const std::string &name, double delta = 1.0)
    {
        inc(handle(name), delta);
    }

    /** Overwrite the named counter. */
    void set(const std::string &name, double value)
    {
        set(handle(name), value);
    }

    /**
     * Overwrite the named counter at reporting time.  Same effect as
     * set(), but not counted in stringLookups(): it materialises a
     * snapshot from plain counters, like merge()/diff(), and is not
     * per-event resolution.
     */
    void put(const std::string &name, double value)
    {
        const std::uint32_t idx = slotFor(name);
        values_[idx] = value;
        written_[idx] = 1;
    }

    /** Read a counter; returns 0 for names never written. */
    double get(const std::string &name) const;

    /** a / b with 0 fallback when b == 0. */
    double ratio(const std::string &a, const std::string &b) const;

    /** All written counters, in name order. */
    std::map<std::string, double> all() const;

    /** Merge: add every written counter of other into this. */
    void merge(const StatSet &other);

    /** Per-counter difference this - earlier (for windowed measurement). */
    StatSet diff(const StatSet &earlier) const;

    /**
     * Process-wide count of string-keyed registry lookups (handle
     * resolutions and string get()s) across every StatSet.  A steady-state
     * simulator loop performs zero of these per record; tests assert the
     * count is independent of trace length.  merge()/diff()/all() traverse
     * registries internally and are not counted — they are end-of-run
     * reporting, not per-event resolution.
     */
    static std::uint64_t stringLookups();

  private:
    /** Find-or-create the slot for a name without touching the lookup
     *  counter; merge()/diff() traverse registries through this so
     *  reporting does not inflate the hot-path diagnostic. */
    std::uint32_t slotFor(const std::string &name);

    std::map<std::string, std::uint32_t> index_;
    std::vector<double> values_;
    //! 1 once inc()/set() touched the slot; registration alone leaves 0,
    //! keeping all()/merge()/diff() identical to the pre-handle string API.
    std::vector<std::uint8_t> written_;
};

} // namespace rmcc::util

#endif // RMCC_UTIL_STATS_HPP

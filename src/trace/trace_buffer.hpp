/**
 * @file
 * In-memory trace container with summary statistics.
 */
#ifndef RMCC_TRACE_TRACE_BUFFER_HPP
#define RMCC_TRACE_TRACE_BUFFER_HPP

#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "trace/trace_source.hpp"

namespace rmcc::trace
{

/**
 * A bounded trace of memory operations.
 *
 * Workload models append to the buffer; generation stops once the
 * configured capacity is reached (checked through full()).  Appends past
 * capacity are counted in dropped() and warned about once — a workload
 * that keeps generating after full() indicates a miswired loop, not data
 * to discard silently.
 *
 * The buffer is both a TraceSink (generators stream into it) and a
 * TraceSource (the simulators replay from it as a single window covering
 * the whole vector).  Traces too large for RAM go through the spilling
 * TraceFileWriter / TraceFileReader pair instead (RMCC_TRACE_SPILL).
 */
class TraceBuffer : public TraceSink, public TraceSource
{
  public:
    /** Create a buffer that accepts up to capacity records. */
    explicit TraceBuffer(std::size_t capacity);

    /**
     * Reports the FINAL dropped count if any appends were refused — the
     * one-shot warning at first drop only knows the count so far, so a
     * generator that keeps running long past full() would otherwise
     * under-report by orders of magnitude.
     */
    ~TraceBuffer() override;

    //! Moves transfer the drop counter (the source stops owning it), so
    //! a moved-from temporary's destructor does not double-report.  The
    //! memo (TraceSource::memo) is never carried over: a copied, moved
    //! or assigned buffer starts with an empty one.
    TraceBuffer(TraceBuffer &&other) noexcept;
    TraceBuffer &operator=(TraceBuffer &&other) noexcept;
    TraceBuffer(const TraceBuffer &) = default;
    TraceBuffer &operator=(const TraceBuffer &) = default;

    /**
     * Append a block of records.  Those past capacity are counted as
     * dropped (with a one-time warning) instead of being stored.  Drops
     * the memo: its values describe the old records.
     */
    void appendBlock(const Record *records, std::size_t n) override;

    std::uint64_t remaining() const override
    {
        return capacity_ - records_.size();
    }

    /** Recorded operations. */
    const std::vector<Record> &records() const { return records_; }

    std::size_t size() const override { return records_.size(); }

    /** Total instructions represented (memory ops + gaps). */
    std::uint64_t totalInstructions() const override
    {
        return total_insts_;
    }

    /** Number of writes recorded. */
    std::uint64_t writes() const override { return writes_; }

    /** Appends refused because the buffer was already full. */
    std::uint64_t dropped() const override { return dropped_; }

    /**
     * Distinct 64 B blocks touched (exact).  Computed on first call and
     * cached; appending invalidates the cache.
     */
    std::uint64_t distinctBlocks() const override;

    /** One window spanning the whole vector (zero per-record overhead). */
    std::unique_ptr<TraceCursor> cursor() const override;

  private:
    std::size_t capacity_;
    std::vector<Record> records_;
    std::uint64_t total_insts_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t dropped_ = 0;
    //! Reporting code calls distinctBlocks() repeatedly on a finished
    //! trace, so the streaming hash-set count (one O(n) pass, no sort)
    //! is memoized until an append invalidates it.
    mutable std::uint64_t distinct_cache_ = 0;
    mutable bool distinct_valid_ = false;
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACE_BUFFER_HPP

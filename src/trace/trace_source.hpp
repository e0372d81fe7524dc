/**
 * @file
 * The two sides of the out-of-core trace engine:
 *
 *  - TraceSink: what workload generators write into, a block of records
 *    at a time (SinkStager stages them).  Implemented by the in-RAM
 *    TraceBuffer and by the spilling TraceFileWriter, so a generator
 *    streams records without knowing whether they land in a vector or on
 *    disk.
 *  - TraceSource: what the simulators replay from, as a sequence of
 *    contiguous record windows.  Implemented by TraceBuffer (one window
 *    covering the whole vector — the pre-PR-8 fast path, bit-identical)
 *    and by the windowed mmap TraceFileReader (epoch-sized windows with
 *    the next one prefetched while the current drains).
 *
 * A source also carries a memo (TraceMemo) of values computed from its
 * records, which lives and dies with the source.
 *
 * Virtual dispatch happens once per *window*, never per record: the
 * replay loops iterate raw `const Record *` spans inside a window, so the
 * in-RAM path compiles to the same inner loop as before the abstraction.
 */
#ifndef RMCC_TRACE_TRACE_SOURCE_HPP
#define RMCC_TRACE_TRACE_SOURCE_HPP

#include <cstdint>
#include <memory>

#include "trace/record.hpp"
#include "trace/trace_memo.hpp"

namespace rmcc::trace
{

struct TracePlan;

/**
 * Destination of a workload generator's record stream.  Records arrive
 * in blocks (appendBlock), usually through a SinkStager, so a sink costs
 * one virtual call per block, not per record.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Append n records (each built by makeRecord, so in range).  Records
     * past the sink's capacity are counted as dropped, with a one-time
     * warning, not stored.
     */
    virtual void appendBlock(const Record *records, std::size_t n) = 0;

    /** Records the sink still accepts before it is full. */
    virtual std::uint64_t remaining() const = 0;

    /** True once the capacity is reached; generators should stop. */
    bool full() const { return remaining() == 0; }

    /** Append one load/store: appendBlock() of its makeRecord(). */
    void append(addr::Addr vaddr, bool is_write, std::uint32_t inst_gap)
    {
        const Record r = makeRecord(vaddr, is_write, inst_gap);
        appendBlock(&r, 1);
    }
};

/**
 * Replay-side I/O counters a spilling source maintains (all zero /
 * absent for the in-RAM path).  Exposed through TraceCursor::ioStats()
 * so the observability layer can chart window traffic per run.
 */
struct TraceIoStats
{
    std::uint64_t windows_served = 0;   //!< next() calls returning data.
    std::uint64_t prefetches = 0;       //!< madvise(WILLNEED) issued.
    std::uint64_t windows_dropped = 0;  //!< madvise(DONTNEED) issued.
    std::uint64_t wait_ns = 0;          //!< Host time blocked in next().
};

/**
 * One contiguous span of records handed to a replay loop.
 *
 * `ahead` points at the record that follows the window (the first record
 * of the next window) so the simulators' one-record lookahead works
 * across window boundaries; nullptr at end of trace.  The span and
 * `ahead` stay valid until the next TraceCursor::next() call.
 */
struct TraceWindow
{
    const Record *data = nullptr;
    std::size_t count = 0;
    std::uint64_t first = 0; //!< Global index of data[0].
    const Record *ahead = nullptr;
};

/**
 * Forward iteration over a source's windows.  Cursors are independent:
 * a source can serve several (the precondition pass and the measured
 * pass each take their own).
 */
class TraceCursor
{
  public:
    virtual ~TraceCursor() = default;

    /** Advance to the next window; count == 0 at end of trace. */
    virtual TraceWindow next() = 0;

    /** I/O counters for this cursor; nullptr for in-RAM sources. */
    virtual const TraceIoStats *ioStats() const { return nullptr; }
};

/**
 * A finished trace the simulators can replay.  The summary statistics
 * are totals over the whole stream (used by trace-shape validation and
 * reporting) and must be O(1) — sources compute them during generation
 * or while validating a file at open, never by re-reading records.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Recorded operations. */
    virtual std::size_t size() const = 0;

    /** Total instructions represented (memory ops + gaps). */
    virtual std::uint64_t totalInstructions() const = 0;

    /** Number of writes recorded. */
    virtual std::uint64_t writes() const = 0;

    /** Appends refused because the sink was already full. */
    virtual std::uint64_t dropped() const = 0;

    /** Distinct 64 B blocks touched (exact). */
    virtual std::uint64_t distinctBlocks() const = 0;

    /** Begin a fresh pass over the records. */
    virtual std::unique_ptr<TraceCursor> cursor() const = 0;

    /**
     * Stream totals recomputed at open, when the source ran that pass
     * (the spilling reader does; in-RAM sources return nullptr).
     */
    virtual const TracePlan *plan() const { return nullptr; }

    /**
     * Values computed from this trace's records, shared by every replay
     * of it and freed with it (see TraceMemo).  A source whose records
     * change must clear() it.
     */
    TraceMemo &memo() const { return memo_; }

  private:
    mutable TraceMemo memo_;
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACE_SOURCE_HPP

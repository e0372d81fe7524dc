/**
 * @file
 * Stream totals of a trace file, recomputed in one streaming pass at open.
 *
 * The mmap reader feeds every record span through TracePlanBuilder while
 * it validates the file, then checks the recomputed totals against the
 * header's claims: a file whose header lies about its stream (e.g. one
 * from a different generation) is rejected even when every chunk
 * checksum passes.
 */
#ifndef RMCC_TRACE_TRACE_PLAN_HPP
#define RMCC_TRACE_TRACE_PLAN_HPP

#include <cstdint>

#include "trace/block_set.hpp"
#include "trace/record.hpp"

namespace rmcc::trace
{

/** Whole-trace totals, in the units of the file header. */
struct TracePlan
{
    std::uint64_t records = 0;
    std::uint64_t writes = 0;
    std::uint64_t instructions = 0;    //!< Memory ops plus gaps.
    std::uint64_t distinct_blocks = 0; //!< Distinct 64 B blocks.
};

/**
 * Incremental totals: the mmap reader feeds one span at a time so it can
 * madvise(DONTNEED) each span right after scanning it, and the pass
 * never holds more than one span resident.
 */
class TracePlanBuilder
{
  public:
    TracePlanBuilder() : blocks_(1 << 12) {}

    /** Scan the next span (spans must arrive in trace order). */
    void addSpan(const Record *data, std::uint64_t count);

    /** Finish and take the totals; the builder is spent afterwards. */
    TracePlan finish();

  private:
    TracePlan plan_;
    BlockSet blocks_;
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACE_PLAN_HPP

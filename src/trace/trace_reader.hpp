/**
 * @file
 * Windowed mmap replay reader for spilled trace files.
 *
 * The whole file is mapped read-only, but only ~one replay window of it
 * is ever resident: the opening validation pass streams
 * through the mapping dropping each span behind itself
 * (madvise(MADV_DONTNEED)), and a replay cursor serving window w
 * prefetches window w+1 (madvise(MADV_WILLNEED), so the kernel reads it
 * back asynchronously while the simulator drains w) and drops window
 * w-1.  Peak RSS for a replay is therefore bounded by a couple of
 * windows regardless of trace size — the out-of-core property the
 * 100M+-record lifetime runs need.
 *
 * Opening validates everything before the first record is replayed:
 * header magic/version/endianness/checksum, file size against the
 * declared geometry, every chunk checksum, and the stream totals
 * (records, instructions, writes, distinct blocks) recomputed by the
 * validation pass against the header's claims.  A truncated, torn, or
 * bit-flipped file throws std::runtime_error; the spill cache reacts by
 * regenerating.
 */
#ifndef RMCC_TRACE_TRACE_READER_HPP
#define RMCC_TRACE_TRACE_READER_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "trace/trace_file.hpp"
#include "trace/trace_plan.hpp"
#include "trace/trace_source.hpp"

namespace rmcc::trace
{

/** A finalized trace file opened for windowed replay. */
class TraceFileReader final : public TraceSource
{
  public:
    /**
     * Open and validate.
     *
     * @param path finalized trace file.
     * @param window_records replay window size (records); 0 means the
     *        file's chunk size.
     * @param expected_fingerprint when set, the header's workload
     *        fingerprint must match (cache-reuse safety).
     * @throws std::runtime_error on any validation failure.
     */
    explicit TraceFileReader(
        std::string path, std::uint64_t window_records = 0,
        std::optional<std::uint64_t> expected_fingerprint = std::nullopt);

    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    std::size_t size() const override { return header_.record_count; }
    std::uint64_t totalInstructions() const override
    {
        return header_.total_insts;
    }
    std::uint64_t writes() const override { return header_.writes; }
    std::uint64_t dropped() const override { return header_.dropped; }
    std::uint64_t distinctBlocks() const override
    {
        return header_.distinct_blocks;
    }

    /**
     * Begin a windowed pass.  Cursors are independent; concurrent
     * cursors over one reader are safe (the mapping is immutable) but
     * each issues its own madvise stream, so pathological interleavings
     * only cost refaults, never correctness.
     */
    std::unique_ptr<TraceCursor> cursor() const override;

    const TracePlan *plan() const override { return &plan_; }

    /** The validated on-disk header. */
    const FileHeader &header() const { return header_; }

    /** Replay window size in records. */
    std::uint64_t windowRecords() const { return window_records_; }

    /** Number of replay windows. */
    std::uint64_t windowCount() const;

    const std::string &path() const { return path_; }

  private:
    friend class FileCursor;

    const Record *recordAt(std::uint64_t i) const;
    void validateAndPlan();
    /** madvise over the byte span of records [first, first+count). */
    void adviseRecords(std::uint64_t first, std::uint64_t count,
                       int advice) const;

    std::string path_;
    FileHeader header_{};
    std::uint64_t window_records_ = 0;
    void *map_ = nullptr;
    std::size_t map_len_ = 0;
    TracePlan plan_;
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACE_READER_HPP

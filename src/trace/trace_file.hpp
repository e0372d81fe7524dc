/**
 * @file
 * Spillable columnar trace file: the on-disk format and its streaming
 * writer.
 *
 * Layout (little-endian, x86-64 host order):
 *
 *     [FileHeader: 128 B]
 *     [records: record_count x 8 B packed trace::Record]
 *     [chunk checksums: ceil(record_count / chunk_records) x 8 B]
 *     [index checksum: 8 B]
 *
 * The header carries the stream totals (record count, instructions,
 * writes, drops, distinct blocks), the chunk geometry, a workload
 * fingerprint (name/length/seed/generator-version hash) so a cached file
 * is never replayed for the wrong workload, and a checksum of itself
 * (util::checksum64, like every checksum here).  Each fixed-size record
 * chunk gets its own checksum so truncation or corruption anywhere in a
 * multi-GB file is caught by the reader's opening pass without trusting
 * the data.
 *
 * Generation streams through TraceFileWriter: the generator fills one
 * in-RAM chunk while a background thread writes the previous one, so
 * trace size is unbounded by host memory and generation overlaps I/O.
 * The writer targets `<path>.tmp.<pid>` and renames into place only in
 * finalize() — a crashed or SIGTERM'd generation can never leave a
 * half-written file that passes validation (same discipline as the
 * shared-graph cache).
 */
#ifndef RMCC_TRACE_TRACE_FILE_HPP
#define RMCC_TRACE_TRACE_FILE_HPP

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "trace/block_set.hpp"
#include "trace/trace_source.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rmcc::trace
{

/**
 * Bump when the record layout, header semantics or checksum change.
 * Never reuse 2: that was a retired delta encoding, whose files may
 * still sit in old spill caches.
 */
inline constexpr std::uint32_t kTraceFormatVersion = 3;

/** Endianness marker as written by the producing host. */
inline constexpr std::uint32_t kTraceEndianMarker = 0x01020304;

/** Records per chunk (and replay window): 1 M = 8 MB. */
inline constexpr std::uint64_t kTraceChunkRecords = 1ULL << 20;

/** RMCC_TRACE_SPILL=auto spills traces of at least this many records. */
inline constexpr std::uint64_t kTraceSpillThresholdRecords = 8ULL << 20;

/** On-disk file header; trivially copyable, 128 bytes. */
struct FileHeader
{
    char magic[8];                //!< "RMCCTRC\x01"
    std::uint32_t version;        //!< kTraceFormatVersion
    std::uint32_t endian;         //!< kTraceEndianMarker
    std::uint64_t record_count;
    std::uint64_t total_insts;
    std::uint64_t writes;
    std::uint64_t dropped;
    std::uint64_t distinct_blocks;
    std::uint64_t chunk_records;
    std::uint64_t fingerprint;
    std::uint64_t capacity;       //!< Configured generation cap.
    std::uint32_t record_bytes;   //!< sizeof(Record) == 8
    std::uint32_t block_bytes;    //!< addr::kBlockSize == 64
    std::uint8_t reserved[32];
    std::uint64_t header_checksum; //!< checksum64 of this struct, field
                                   //!< zeroed.
};

static_assert(sizeof(FileHeader) == 128, "fixed header size");

/** Magic value for FileHeader::magic. */
inline constexpr char kTraceMagic[8] = {'R', 'M', 'C', 'C',
                                        'T', 'R', 'C', '\x01'};

/**
 * Workload fingerprint stored in the header: identifies (generator
 * version, workload name, trace length, seed) so the spill cache can
 * reuse files across runs but never across a generator change.
 */
std::uint64_t traceFingerprint(const std::string &workload_name,
                               std::uint64_t records, std::uint64_t seed);

/** How trace spilling was requested (strict-parsed RMCC_* knobs). */
struct SpillConfig
{
    enum class Mode
    {
        Off,  //!< In-RAM TraceBuffer (default; bit-identical to pre-spill).
        Auto, //!< Spill only traces of kTraceSpillThresholdRecords+.
        On,   //!< Spill every trace.
    };
    Mode mode = Mode::Off;
    std::string dir; //!< Spill/cache directory.

    /** Should a trace of this many records go to disk? */
    bool shouldSpill(std::uint64_t records) const
    {
        return mode == Mode::On ||
               (mode == Mode::Auto &&
                records >= kTraceSpillThresholdRecords);
    }
};

/**
 * Parse RMCC_TRACE_SPILL / RMCC_TRACE_DIR.  Garbage values throw
 * (std::runtime_error naming the variable), matching every other RMCC_*
 * knob.
 */
SpillConfig spillConfigFromEnv();

/**
 * Create the spill/cache directory (and parents) if missing.
 * @throws std::runtime_error when a component cannot be created.
 */
void ensureTraceDir(const std::string &dir);

/**
 * Streaming trace writer: a TraceSink backed by a double-buffered
 * background I/O thread.  appendBlock() fills the active chunk; when it
 * is full the chunk is handed to the writer thread and generation
 * continues into the other buffer.  Call finalize() to flush, write the
 * checksum index and header, fsync, and atomically rename into place.
 */
class TraceFileWriter final : public TraceSink
{
  public:
    /**
     * @param path final file path (written as path.tmp.<pid> until
     *        finalize()).
     * @param capacity generation cap, as TraceBuffer's constructor.
     * @param fingerprint workload identity (traceFingerprint()).
     * @param chunk_records records per chunk/checksum unit.
     * @throws std::runtime_error when the file cannot be created.
     */
    TraceFileWriter(std::string path, std::uint64_t capacity,
                    std::uint64_t fingerprint,
                    std::uint64_t chunk_records = kTraceChunkRecords);

    /** Abandons (unlinks) the temporary file unless finalize() ran. */
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void appendBlock(const Record *records, std::size_t n) override;

    std::uint64_t remaining() const override { return capacity_ - count_; }

    /** Records accepted so far. */
    std::uint64_t size() const { return count_; }

    /** Appends refused at capacity. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Flush everything, write the index + header, fsync, and rename the
     * temporary into the final path.  Idempotent; must be called before
     * the file is opened for replay.
     * @throws std::runtime_error on any I/O failure (the temporary is
     *         removed; the final path is untouched).
     */
    void finalize();

    /** Final path the finalized file lives at. */
    const std::string &path() const { return path_; }

  private:
    void flushChunk();
    void writerLoop();
    void throwIfIoFailed();

    // Generation-thread-only state: touched by appendBlock()/finalize() and
    // the ctor/dtor, never by the background writer.
    std::string path_;
    std::string tmp_path_;
    int fd_ = -1; //!< Written by the writer thread only between
                  //!< ctor and join() (writeAll), owned here otherwise.
    std::uint64_t capacity_;
    std::uint64_t fingerprint_;
    std::uint64_t chunk_records_;
    std::uint64_t count_ = 0;
    std::uint64_t total_insts_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t dropped_ = 0;
    BlockSet distinct_;
    bool finalized_ = false;

    // Double buffering: generation fills active_, the background thread
    // drains pending_.  A single pending slot is enough — generation
    // blocks only when it outruns the disk by a full chunk.
    std::vector<Record> active_; //!< Generation-thread-only.
    util::Mutex mu_;
    util::CondVar cv_;
    std::vector<Record> pending_ RMCC_GUARDED_BY(mu_);
    bool pending_valid_ RMCC_GUARDED_BY(mu_) = false;
    bool stop_ RMCC_GUARDED_BY(mu_) = false;
    std::string io_error_ RMCC_GUARDED_BY(mu_);
    std::uint64_t bytes_written_ RMCC_GUARDED_BY(mu_) = 0;
    std::vector<std::uint64_t> chunk_checksums_ RMCC_GUARDED_BY(mu_);
    std::thread writer_;
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACE_FILE_HPP

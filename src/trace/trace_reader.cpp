#include "trace/trace_reader.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "address/types.hpp"
#include "util/checksum.hpp"
#include "util/log.hpp"

namespace rmcc::trace
{

namespace
{

[[noreturn]] void
fail(const std::string &path, const std::string &why)
{
    throw std::runtime_error("trace file '" + path + "': " + why);
}

std::uint64_t
hostPageSize()
{
    static const std::uint64_t ps =
        static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    return ps;
}

} // namespace

TraceFileReader::TraceFileReader(
    std::string path, std::uint64_t window_records,
    std::optional<std::uint64_t> expected_fingerprint)
    : path_(std::move(path))
{
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        fail(path_, std::string("open failed: ") + std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fail(path_, std::string("fstat failed: ") + std::strerror(err));
    }
    const std::uint64_t file_len = static_cast<std::uint64_t>(st.st_size);
    if (file_len < sizeof(FileHeader)) {
        ::close(fd);
        fail(path_, "shorter than the header");
    }
    map_len_ = file_len;
    map_ = ::mmap(nullptr, map_len_, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (map_ == MAP_FAILED) {
        map_ = nullptr;
        fail(path_, std::string("mmap failed: ") + std::strerror(errno));
    }

    std::memcpy(&header_, map_, sizeof header_);
    if (std::memcmp(header_.magic, kTraceMagic, sizeof kTraceMagic) != 0)
        fail(path_, "bad magic (not a trace file, or torn write)");
    if (header_.version != kTraceFormatVersion)
        fail(path_, "format version " + std::to_string(header_.version) +
                        ", expected " +
                        std::to_string(kTraceFormatVersion));
    if (header_.endian != kTraceEndianMarker)
        fail(path_, "foreign endianness");
    if (header_.record_bytes != sizeof(Record) ||
        header_.block_bytes != addr::kBlockSize)
        fail(path_, "record/block geometry mismatch");
    FileHeader check = header_;
    check.header_checksum = 0;
    if (util::checksum64(&check, sizeof check) != header_.header_checksum)
        fail(path_, "header checksum mismatch");
    if (expected_fingerprint &&
        header_.fingerprint != *expected_fingerprint)
        fail(path_, "workload fingerprint mismatch (stale cache entry)");
    if (header_.chunk_records == 0)
        fail(path_, "zero chunk size");

    const std::uint64_t n_chunks =
        (header_.record_count + header_.chunk_records - 1) /
        header_.chunk_records;
    const std::uint64_t want_len = sizeof(FileHeader) +
                                   header_.record_count * sizeof(Record) +
                                   n_chunks * sizeof(std::uint64_t) +
                                   sizeof(std::uint64_t);
    if (file_len != want_len)
        fail(path_, "truncated: " + std::to_string(file_len) +
                        " bytes, header implies " +
                        std::to_string(want_len));

    window_records_ =
        window_records == 0 ? header_.chunk_records : window_records;

    validateAndPlan();
}

TraceFileReader::~TraceFileReader()
{
    if (map_ != nullptr)
        ::munmap(map_, map_len_);
}

const Record *
TraceFileReader::recordAt(std::uint64_t i) const
{
    return reinterpret_cast<const Record *>(
               static_cast<const char *>(map_) + sizeof(FileHeader)) +
           i;
}

void
TraceFileReader::adviseRecords(std::uint64_t first, std::uint64_t count,
                               int advice) const
{
    if (count == 0)
        return;
    std::uint64_t lo = sizeof(FileHeader) + first * sizeof(Record);
    std::uint64_t hi = sizeof(FileHeader) + (first + count) * sizeof(Record);
    const std::uint64_t ps = hostPageSize();
    if (advice == MADV_DONTNEED) {
        // Round inward: never drop a page shared with a neighboring
        // window that may still be (or become) live.
        lo = (lo + ps - 1) & ~(ps - 1);
        hi = hi & ~(ps - 1);
    } else {
        lo = lo & ~(ps - 1);
        hi = (hi + ps - 1) & ~(ps - 1);
    }
    if (hi <= lo)
        return;
    ::madvise(static_cast<char *>(map_) + lo, hi - lo, advice);
}

void
TraceFileReader::validateAndPlan()
{
    const std::uint64_t n = header_.record_count;
    const std::uint64_t chunk = header_.chunk_records;
    const std::uint64_t n_chunks = (n + chunk - 1) / chunk;

    // The checksum index sits right after the records.
    const char *base = static_cast<const char *>(map_);
    const std::uint64_t *index = reinterpret_cast<const std::uint64_t *>(
        base + sizeof(FileHeader) + n * sizeof(Record));
    const std::uint64_t index_sum_stored = index[n_chunks];
    if (util::checksum64(index, n_chunks * sizeof(std::uint64_t)) !=
        index_sum_stored)
        fail(path_, "checksum index corrupt");

    // Single streaming pass: per-chunk checksum, then the stream totals
    // over the same span, dropping each span behind us so validation
    // itself stays within the RSS bound.
    TracePlanBuilder builder;
    for (std::uint64_t c = 0; c < n_chunks; ++c) {
        const std::uint64_t first = c * chunk;
        const std::uint64_t count = n - first < chunk ? n - first : chunk;
        const std::uint64_t sum =
            util::checksum64(recordAt(first), count * sizeof(Record));
        if (sum != index[c])
            fail(path_, "chunk " + std::to_string(c) +
                            " checksum mismatch (corrupt records)");
        builder.addSpan(recordAt(first), count);
        adviseRecords(first, count, MADV_DONTNEED);
    }
    plan_ = builder.finish();

    // The recomputed totals must match the header's claims: a mismatch
    // means the file lies about itself even though per-chunk checksums
    // passed (e.g. a header from a different generation).
    if (plan_.records != header_.record_count ||
        plan_.instructions != header_.total_insts ||
        plan_.writes != header_.writes ||
        plan_.distinct_blocks != header_.distinct_blocks)
        fail(path_, "stream totals disagree with header");

    util::logDebug("trace file: opened %s (%llu records, %llu windows "
                   "of %llu, %llu distinct blocks)",
                   path_.c_str(),
                   static_cast<unsigned long long>(header_.record_count),
                   static_cast<unsigned long long>(windowCount()),
                   static_cast<unsigned long long>(window_records_),
                   static_cast<unsigned long long>(
                       header_.distinct_blocks));
}

std::uint64_t
TraceFileReader::windowCount() const
{
    const std::uint64_t n = header_.record_count;
    return n == 0 ? 1 : (n + window_records_ - 1) / window_records_;
}

/** Forward pass over a reader's windows with prefetch/drop advice. */
class FileCursor final : public TraceCursor
{
  public:
    explicit FileCursor(const TraceFileReader &reader)
        : reader_(reader), n_windows_(reader.windowCount())
    {
    }

    TraceWindow next() override
    {
        const auto t0 = std::chrono::steady_clock::now();
        if (idx_ > 0) {
            // The window we just finished will not be revisited.
            span(idx_ - 1, MADV_DONTNEED);
            ++stats_.windows_dropped;
        }
        if (idx_ >= n_windows_ ||
            (idx_ > 0 && firstOf(idx_) >= reader_.size()))
            return {};

        if (idx_ == 0) {
            span(0, MADV_WILLNEED);
            ++stats_.prefetches;
        }
        if (idx_ + 1 < n_windows_) {
            // Kernel readahead pulls the next window in asynchronously
            // while the simulator drains this one.
            span(idx_ + 1, MADV_WILLNEED);
            ++stats_.prefetches;
        }

        const std::uint64_t first = firstOf(idx_);
        const std::uint64_t count = countOf(idx_);
        TraceWindow w;
        w.data = reader_.size() == 0 ? nullptr : recordPtr(first);
        w.count = count;
        w.first = first;
        w.ahead = first + count < reader_.size()
                      ? recordPtr(first + count)
                      : nullptr;
        ++idx_;
        ++stats_.windows_served;
        stats_.wait_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return w;
    }

    const TraceIoStats *ioStats() const override { return &stats_; }

  private:
    std::uint64_t firstOf(std::uint64_t w) const
    {
        return w * reader_.windowRecords();
    }
    std::uint64_t countOf(std::uint64_t w) const
    {
        const std::uint64_t n = reader_.size();
        const std::uint64_t first = firstOf(w);
        if (first >= n)
            return 0;
        const std::uint64_t rest = n - first;
        return rest < reader_.windowRecords() ? rest
                                              : reader_.windowRecords();
    }
    const Record *recordPtr(std::uint64_t i) const
    {
        return reader_.recordAt(i);
    }
    void span(std::uint64_t w, int advice) const
    {
        reader_.adviseRecords(firstOf(w), countOf(w), advice);
    }

    const TraceFileReader &reader_;
    std::uint64_t n_windows_;
    std::uint64_t idx_ = 0;
    TraceIoStats stats_;
};

std::unique_ptr<TraceCursor>
TraceFileReader::cursor() const
{
    return std::make_unique<FileCursor>(*this);
}

} // namespace rmcc::trace

#include "trace/trace_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "address/types.hpp"
#include "util/checksum.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace rmcc::trace
{

namespace
{

[[noreturn]] void
throwErrno(const std::string &what, const std::string &path)
{
    throw std::runtime_error("trace file: " + what + " '" + path +
                             "': " + std::strerror(errno));
}

/** write() the whole buffer, resuming on short writes / EINTR. */
void
writeAll(int fd, const void *data, std::size_t len, const std::string &path)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("write to", path);
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
}

} // namespace

std::uint64_t
traceFingerprint(const std::string &workload_name, std::uint64_t records,
                 std::uint64_t seed)
{
    std::string key = workload_name;
    key += '|';
    key += std::to_string(records);
    key += '|';
    key += std::to_string(seed);
    key += "|gen";
    key += std::to_string(kTraceFormatVersion);
    return util::checksum64(key);
}

SpillConfig
spillConfigFromEnv()
{
    SpillConfig sc;
    const std::string mode =
        util::envChoice("RMCC_TRACE_SPILL", {"off", "auto", "on"}, "off");
    sc.mode = mode == "on"    ? SpillConfig::Mode::On
              : mode == "auto" ? SpillConfig::Mode::Auto
                               : SpillConfig::Mode::Off;
    sc.dir = util::envStringOr("RMCC_TRACE_DIR", "/tmp/rmcc_traces");
    return sc;
}

void
ensureTraceDir(const std::string &dir)
{
    if (dir.empty())
        throw std::runtime_error("trace file: empty spill directory");
    // mkdir -p: create each component, tolerating ones that exist.
    std::string sofar;
    std::size_t pos = 0;
    while (pos <= dir.size()) {
        const std::size_t slash = dir.find('/', pos);
        const std::size_t end = slash == std::string::npos ? dir.size()
                                                           : slash;
        sofar.assign(dir, 0, end);
        pos = end + 1;
        if (sofar.empty())
            continue; // leading '/'
        if (::mkdir(sofar.c_str(), 0755) != 0 && errno != EEXIST)
            throwErrno("create directory", sofar);
    }
    struct stat st{};
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        throw std::runtime_error("trace file: '" + dir +
                                 "' is not a directory");
}

TraceFileWriter::TraceFileWriter(std::string path, std::uint64_t capacity,
                                 std::uint64_t fingerprint,
                                 std::uint64_t chunk_records)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(::getpid())),
      capacity_(capacity),
      fingerprint_(fingerprint),
      chunk_records_(chunk_records == 0 ? kTraceChunkRecords
                                        : chunk_records),
      distinct_(1 << 12)
{
    fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        throwErrno("create", tmp_path_);
    // Reserve the header slot; the real header is pwritten in finalize()
    // once the totals are known.
    const FileHeader zero{};
    writeAll(fd_, &zero, sizeof zero, tmp_path_);
    bytes_written_ = sizeof zero;
    active_.reserve(chunk_records_);
    pending_.reserve(chunk_records_);
    writer_ = std::thread([this] { writerLoop(); });
}

TraceFileWriter::~TraceFileWriter()
{
    {
        util::MutexLock lk(mu_);
        stop_ = true;
        cv_.notify_all();
    }
    if (writer_.joinable())
        writer_.join();
    if (fd_ >= 0)
        ::close(fd_);
    if (!finalized_)
        ::unlink(tmp_path_.c_str()); // never leave a half-written temp
    if (dropped_ > 0)
        util::warn("trace file writer dropped %llu append(s) total "
                   "(configured capacity %llu); the generator overran "
                   "the trace budget",
                   static_cast<unsigned long long>(dropped_),
                   static_cast<unsigned long long>(capacity_));
}

void
TraceFileWriter::appendBlock(const Record *records, std::size_t n)
{
    std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, remaining()));
    if (take < n) {
        if (dropped_ == 0)
            util::warn("trace file full (configured capacity %llu "
                       "records): dropping further appends",
                       static_cast<unsigned long long>(capacity_));
        dropped_ += n - take;
    }
    for (std::size_t i = 0; i < take; ++i) {
        total_insts_ += 1 + records[i].inst_gap;
        writes_ += records[i].is_write;
        distinct_.insert(addr::blockOf(records[i].vaddr));
    }
    count_ += take;
    // Fill the active chunk, handing it to the writer each time it fills.
    while (take > 0) {
        const std::size_t k =
            std::min<std::size_t>(take, chunk_records_ - active_.size());
        active_.insert(active_.end(), records, records + k);
        records += k;
        take -= k;
        if (active_.size() >= chunk_records_)
            flushChunk();
    }
}

void
TraceFileWriter::flushChunk()
{
    if (active_.empty())
        return;
    util::MutexLock lk(mu_);
    // Double buffering: wait until the background thread has drained the
    // previous chunk, then swap ours in.
    cv_.wait(lk, [this]() RMCC_REQUIRES(mu_) {
        return !pending_valid_ || !io_error_.empty();
    });
    if (!io_error_.empty())
        throw std::runtime_error("trace file: background write to '" +
                                 tmp_path_ + "' failed: " + io_error_);
    pending_.swap(active_);
    pending_valid_ = true;
    active_.clear();
    cv_.notify_all();
}

void
TraceFileWriter::writerLoop()
{
    std::vector<Record> chunk;
    for (;;) {
        {
            util::MutexLock lk(mu_);
            cv_.wait(lk, [this]() RMCC_REQUIRES(mu_) {
                return pending_valid_ || stop_;
            });
            if (!pending_valid_ && stop_)
                return;
            chunk.swap(pending_);
            pending_valid_ = false;
            cv_.notify_all();
        }
        const std::size_t bytes = chunk.size() * sizeof(Record);
        try {
            writeAll(fd_, chunk.data(), bytes, tmp_path_);
        } catch (const std::exception &e) {
            util::MutexLock lk(mu_);
            io_error_ = e.what();
            cv_.notify_all();
            return;
        }
        util::MutexLock lk(mu_);
        bytes_written_ += bytes;
        chunk_checksums_.push_back(util::checksum64(chunk.data(), bytes));
        chunk.clear();
    }
}

void
TraceFileWriter::throwIfIoFailed()
{
    util::MutexLock lk(mu_);
    if (!io_error_.empty())
        throw std::runtime_error("trace file: background write to '" +
                                 tmp_path_ + "' failed: " + io_error_);
}

void
TraceFileWriter::finalize()
{
    if (finalized_)
        return;
    flushChunk(); // hand the partial tail chunk to the writer
    {
        util::MutexLock lk(mu_);
        cv_.wait(lk, [this]() RMCC_REQUIRES(mu_) {
            return (!pending_valid_) || !io_error_.empty();
        });
        stop_ = true;
        cv_.notify_all();
    }
    writer_.join();
    throwIfIoFailed();

    // Checksum index: one checksum per chunk, then a checksum over the
    // index itself, so the reader can localize corruption.  The writer
    // thread is joined, but chunk_checksums_ is lock-protected state —
    // take mu_ so the discipline is uniform (and provable to the
    // thread-safety analysis) rather than relying on the join barrier.
    std::size_t n_chunks = 0;
    {
        util::MutexLock lk(mu_);
        n_chunks = chunk_checksums_.size();
        const std::size_t index_bytes = n_chunks * sizeof(std::uint64_t);
        writeAll(fd_, chunk_checksums_.data(), index_bytes, tmp_path_);
        const std::uint64_t index_sum =
            util::checksum64(chunk_checksums_.data(), index_bytes);
        writeAll(fd_, &index_sum, sizeof index_sum, tmp_path_);
    }

    FileHeader h{};
    std::memcpy(h.magic, kTraceMagic, sizeof h.magic);
    h.version = kTraceFormatVersion;
    h.endian = kTraceEndianMarker;
    h.record_count = count_;
    h.total_insts = total_insts_;
    h.writes = writes_;
    h.dropped = dropped_;
    h.distinct_blocks = distinct_.size();
    h.chunk_records = chunk_records_;
    h.fingerprint = fingerprint_;
    h.capacity = capacity_;
    h.record_bytes = sizeof(Record);
    h.block_bytes = addr::kBlockSize;
    h.header_checksum = 0;
    h.header_checksum = util::checksum64(&h, sizeof h);
    if (::pwrite(fd_, &h, sizeof h, 0) !=
        static_cast<ssize_t>(sizeof h))
        throwErrno("write header of", tmp_path_);

    if (::fsync(fd_) != 0)
        throwErrno("fsync", tmp_path_);
    ::close(fd_);
    fd_ = -1;
    if (::rename(tmp_path_.c_str(), path_.c_str()) != 0)
        throwErrno("rename into place", path_);
    finalized_ = true;
    util::logDebug("trace file: finalized %s (%llu records, %llu chunks)",
                   path_.c_str(),
                   static_cast<unsigned long long>(count_),
                   static_cast<unsigned long long>(n_chunks));
}

} // namespace rmcc::trace

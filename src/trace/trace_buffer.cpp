#include "trace/trace_buffer.hpp"

#include <algorithm>
#include <utility>

#include "trace/block_set.hpp"
#include "util/log.hpp"

namespace rmcc::trace
{

namespace
{

/** The whole vector as one window; ahead is always null (nothing follows). */
class BufferCursor final : public TraceCursor
{
  public:
    explicit BufferCursor(const std::vector<Record> &records)
        : records_(records)
    {
    }

    TraceWindow next() override
    {
        if (done_)
            return {};
        done_ = true;
        return {records_.data(), records_.size(), 0, nullptr};
    }

  private:
    const std::vector<Record> &records_;
    bool done_ = false;
};

} // namespace

void
recordOutOfRange(addr::Addr vaddr, std::uint32_t inst_gap)
{
    if (vaddr > kMaxRecordVaddr)
        util::fatal("trace record vaddr 0x%llx exceeds 47 bits",
                    static_cast<unsigned long long>(vaddr));
    util::fatal("trace record inst_gap %u exceeds 16 bits", inst_gap);
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity)
{
    records_.reserve(std::min<std::size_t>(capacity, 1 << 22));
}

TraceBuffer::~TraceBuffer()
{
    if (dropped_ > 0)
        util::warn("trace buffer dropped %llu append(s) total "
                   "(capacity %zu); the generator overran the buffer",
                   static_cast<unsigned long long>(dropped_), capacity_);
}

TraceBuffer::TraceBuffer(TraceBuffer &&other) noexcept
    : capacity_(other.capacity_),
      records_(std::move(other.records_)),
      total_insts_(other.total_insts_),
      writes_(other.writes_),
      dropped_(other.dropped_),
      distinct_cache_(other.distinct_cache_),
      distinct_valid_(other.distinct_valid_)
{
    other.dropped_ = 0;
}

TraceBuffer &
TraceBuffer::operator=(TraceBuffer &&other) noexcept
{
    if (this != &other) {
        capacity_ = other.capacity_;
        records_ = std::move(other.records_);
        total_insts_ = other.total_insts_;
        writes_ = other.writes_;
        dropped_ = other.dropped_;
        distinct_cache_ = other.distinct_cache_;
        distinct_valid_ = other.distinct_valid_;
        other.dropped_ = 0;
        memo().clear();
    }
    return *this;
}

void
TraceBuffer::appendBlock(const Record *records, std::size_t n)
{
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, remaining()));
    if (take < n) {
        if (dropped_ == 0)
            util::warn("trace buffer full (configured capacity %zu "
                       "records): dropping further appends; set "
                       "RMCC_TRACE_SPILL=on to stream traces larger than "
                       "RAM to disk instead",
                       capacity_);
        dropped_ += n - take;
    }
    if (take == 0)
        return;
    records_.insert(records_.end(), records, records + take);
    for (std::size_t i = 0; i < take; ++i) {
        total_insts_ += 1 + records[i].inst_gap;
        writes_ += records[i].is_write;
    }
    distinct_valid_ = false;
    memo().clear();
}

std::uint64_t
TraceBuffer::distinctBlocks() const
{
    if (distinct_valid_)
        return distinct_cache_;
    // One streaming pass through a hash set: O(n) expected time and
    // O(distinct) space, versus the old sort|unique's O(n log n) time
    // over an O(n) copy of the whole trace.
    BlockSet blocks(records_.size() / 8 + 16);
    for (const auto &r : records_)
        blocks.insert(addr::blockOf(r.vaddr));
    distinct_cache_ = blocks.size();
    distinct_valid_ = true;
    return distinct_cache_;
}

std::unique_ptr<TraceCursor>
TraceBuffer::cursor() const
{
    return std::make_unique<BufferCursor>(records_);
}

} // namespace rmcc::trace

/**
 * @file
 * A traced simulated heap: workload kernels allocate arrays from it and
 * every element access is recorded into a TraceSink (an in-RAM
 * TraceBuffer or a spilling TraceFileWriter) through a SinkStager,
 * playing the role of Pin instrumentation over a native binary.
 *
 * The heap hands out *virtual* address ranges; values live in ordinary host
 * vectors so the kernels are real executable algorithms, not statistical
 * address generators.
 */
#ifndef RMCC_TRACE_TRACED_MEMORY_HPP
#define RMCC_TRACE_TRACED_MEMORY_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_source.hpp"
#include "util/rng.hpp"

namespace rmcc::trace
{

/**
 * The front a generator appends through: each record is checked
 * (makeRecord) and staged in a small fixed block, and whole blocks go to
 * the sink in one appendBlock() call.  It counts the sink's remaining
 * capacity itself, so full() is not a virtual call, and push() must only
 * be called while !full().  It must be the sink's only writer while it
 * lives, and flush() must run before the sink is read.
 */
class SinkStager
{
  public:
    explicit SinkStager(TraceSink &sink)
        : sink_(sink), left_(sink.remaining())
    {
    }

    /** Flushes, unless an exception is unwinding; a failed flush here
     *  is fatal, as no caller is left to handle it. */
    ~SinkStager();

    SinkStager(const SinkStager &) = delete;
    SinkStager &operator=(const SinkStager &) = delete;

    /** True once the sink's capacity is staged; generators stop. */
    bool full() const { return left_ == 0; }

    /** Stage one load/store (requires !full()). */
    void push(addr::Addr vaddr, bool is_write, std::uint32_t inst_gap)
    {
        block_[staged_++] = makeRecord(vaddr, is_write, inst_gap);
        --left_;
        if (staged_ == kBlockRecords)
            flush();
    }

    /** Hand the staged records to the sink. */
    void flush()
    {
        if (staged_ > 0)
            sink_.appendBlock(block_.data(), staged_);
        staged_ = 0;
    }

  private:
    //! 2 KiB: stays in L1 and amortizes the virtual call 256 ways.
    static constexpr std::size_t kBlockRecords = 256;

    TraceSink &sink_;
    std::uint64_t left_;
    std::size_t staged_ = 0;
    std::array<Record, kBlockRecords> block_{};
};

/**
 * Allocator + recorder for simulated virtual memory.
 *
 * Kernels test done() only between operations, and one operation makes
 * several accesses, so the last one can run past a full sink.  Those
 * accesses are not recorded (nor their gaps drawn): the stored records
 * are the same, and the sink sees no over-append to warn about.
 */
class TracedHeap
{
  public:
    /**
     * @param sink destination trace (borrowed; must outlive the heap,
     *        and is written only through the heap while it lives).
     * @param mean_inst_gap mean non-memory instructions between recorded
     *        memory operations (workload "compute density").
     * @param seed RNG seed for gap jitter.
     */
    TracedHeap(TraceSink &sink, double mean_inst_gap, std::uint64_t seed);

    /** Reserve a virtual range of n elements of size elem_bytes. */
    addr::Addr allocate(std::uint64_t n, std::uint64_t elem_bytes,
                        const std::string &label);

    /** Record a load of element index i of a range (none once full). */
    // rmcc-lint: hot-path
    void load(addr::Addr base, std::uint64_t index,
              std::uint64_t elem_bytes)
    {
        if (!out_.full())
            out_.push(base + index * elem_bytes, false,
                      rng_.nextGeometric(mean_gap_));
    }

    /** Record a store to element index i of a range (none once full). */
    // rmcc-lint: hot-path
    void store(addr::Addr base, std::uint64_t index,
               std::uint64_t elem_bytes)
    {
        if (!out_.full())
            out_.push(base + index * elem_bytes, true,
                      rng_.nextGeometric(mean_gap_));
    }

    /** Hand the staged records to the sink; call before reading it. */
    void flush() { out_.flush(); }

    /** Total bytes allocated. */
    std::uint64_t allocatedBytes() const { return brk_; }

    /** True once the trace budget is exhausted; kernels should stop. */
    bool done() const { return out_.full(); }

  private:
    SinkStager out_;
    double mean_gap_;
    util::Rng rng_;
    addr::Addr brk_ = 1ULL << 20; // leave a guard gap below the heap
};

/**
 * A typed array living in a TracedHeap.  Reads/writes go to a host vector
 * (so algorithms really run) and are simultaneously recorded as loads and
 * stores at the array's simulated virtual addresses.
 */
template <typename T>
class TracedArray
{
  public:
    /** Allocate n elements, default-initialized. */
    TracedArray(TracedHeap &heap, std::uint64_t n, const std::string &label)
        : heap_(&heap), data_(n),
          base_(heap.allocate(n, sizeof(T), label))
    {
    }

    /** Recorded element read. */
    T get(std::uint64_t i)
    {
        heap_->load(base_, i, sizeof(T));
        return data_[i];
    }

    /** Recorded element write. */
    void set(std::uint64_t i, const T &v)
    {
        heap_->store(base_, i, sizeof(T));
        data_[i] = v;
    }

    /** Unrecorded access for setup/teardown phases. */
    T &raw(std::uint64_t i) { return data_[i]; }
    const T &raw(std::uint64_t i) const { return data_[i]; }

    std::uint64_t size() const { return data_.size(); }

    /** Base simulated virtual address. */
    addr::Addr base() const { return base_; }

  private:
    TracedHeap *heap_;
    std::vector<T> data_;
    addr::Addr base_;
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACED_MEMORY_HPP

/**
 * @file
 * A traced simulated heap: workload kernels allocate arrays from it and
 * every element access is recorded into a TraceSink (an in-RAM
 * TraceBuffer or a spilling TraceFileWriter), playing the role of Pin
 * instrumentation over a native binary.
 *
 * The heap hands out *virtual* address ranges; values live in ordinary host
 * vectors so the kernels are real executable algorithms, not statistical
 * address generators.
 */
#ifndef RMCC_TRACE_TRACED_MEMORY_HPP
#define RMCC_TRACE_TRACED_MEMORY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_source.hpp"
#include "util/rng.hpp"

namespace rmcc::trace
{

/**
 * Allocator + recorder for simulated virtual memory.
 */
class TracedHeap
{
  public:
    /**
     * @param sink destination trace (borrowed; must outlive the heap).
     * @param mean_inst_gap mean non-memory instructions between recorded
     *        memory operations (workload "compute density").
     * @param seed RNG seed for gap jitter.
     */
    TracedHeap(TraceSink &sink, double mean_inst_gap, std::uint64_t seed);

    /** Reserve a virtual range of n elements of size elem_bytes. */
    addr::Addr allocate(std::uint64_t n, std::uint64_t elem_bytes,
                        const std::string &label);

    /** Record a load of element index i of a range (none once full). */
    void load(addr::Addr base, std::uint64_t index,
              std::uint64_t elem_bytes);

    /** Record a store to element index i of a range (none once full). */
    void store(addr::Addr base, std::uint64_t index,
               std::uint64_t elem_bytes);

    /** Total bytes allocated. */
    std::uint64_t allocatedBytes() const { return brk_; }

    /** The underlying sink. */
    TraceSink &sink() { return sink_; }

    /** True once the trace budget is exhausted; kernels should stop. */
    bool done() const { return sink_.full(); }

  private:
    TraceSink &sink_;
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

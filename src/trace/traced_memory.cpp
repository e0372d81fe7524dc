#include "trace/traced_memory.hpp"

namespace rmcc::trace
{

TracedHeap::TracedHeap(TraceSink &sink, double mean_inst_gap,
                       std::uint64_t seed)
    : sink_(sink), mean_gap_(mean_inst_gap), rng_(seed)
{
}

addr::Addr
TracedHeap::allocate(std::uint64_t n, std::uint64_t elem_bytes,
                     const std::string &label)
{
    (void)label; // labels are for debugging/tests only
    // Align each range to a huge-page boundary so distinct arrays never
    // share a page, as a real allocator's mmap would behave for large
    // arrays.
    const addr::Addr aligned =
        (brk_ + addr::kHugePageSize - 1) & ~(addr::kHugePageSize - 1);
    brk_ = aligned + n * elem_bytes;
    return aligned;
}

// Kernels test done() only between operations, and one operation makes
// several accesses, so the last one can run past a full sink.  Those
// accesses are not recorded (nor their gaps drawn): the stored records
// are the same, and the sink sees no over-append to warn about.

void
TracedHeap::load(addr::Addr base, std::uint64_t index,
                 std::uint64_t elem_bytes)
{
    if (!sink_.full())
        sink_.append(base + index * elem_bytes, false,
                     rng_.nextGeometric(mean_gap_));
}

void
TracedHeap::store(addr::Addr base, std::uint64_t index,
                  std::uint64_t elem_bytes)
{
    if (!sink_.full())
        sink_.append(base + index * elem_bytes, true,
                     rng_.nextGeometric(mean_gap_));
}

} // namespace rmcc::trace

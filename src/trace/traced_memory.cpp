#include "trace/traced_memory.hpp"

#include <exception>

#include "util/log.hpp"

namespace rmcc::trace
{

SinkStager::~SinkStager()
{
    if (staged_ == 0 || std::uncaught_exceptions() > 0)
        return;
    try {
        flush();
    } catch (const std::exception &e) {
        util::fatal("trace sink: flushing the last staged records "
                    "failed: %s",
                    e.what());
    }
}

TracedHeap::TracedHeap(TraceSink &sink, double mean_inst_gap,
                       std::uint64_t seed)
    : out_(sink), mean_gap_(mean_inst_gap), rng_(seed)
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

} // namespace rmcc::trace

#include "trace/trace_plan.hpp"

namespace rmcc::trace
{

void
TracePlanBuilder::addSpan(const Record *data, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const Record &r = data[i];
        plan_.writes += r.is_write ? 1 : 0;
        plan_.instructions += 1 + r.inst_gap;
        blocks_.insert(addr::blockOf(r.vaddr));
    }
    plan_.records += count;
}

TracePlan
TracePlanBuilder::finish()
{
    plan_.distinct_blocks = blocks_.size();
    return plan_;
}

} // namespace rmcc::trace

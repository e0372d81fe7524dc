/**
 * @file
 * Memory-trace record: the interchange format between workload models and
 * the simulators (the role Pin traces / gem5 probes play in the paper).
 */
#ifndef RMCC_TRACE_RECORD_HPP
#define RMCC_TRACE_RECORD_HPP

#include <cstdint>

#include "address/types.hpp"

namespace rmcc::trace
{

/**
 * One memory operation observed at the core, packed into 8 bytes so a
 * 100M-record trace streams through the simulators at cache speed.
 *
 * Field widths: 47 bits of virtual address cover the canonical x86-64
 * user half; 16 bits of instruction gap exceed any gap the geometric
 * workload models emit by orders of magnitude.  makeRecord() rejects
 * out-of-range values loudly rather than truncating.
 */
struct Record
{
    std::uint64_t vaddr : 47;    //!< Virtual byte address.
    std::uint64_t inst_gap : 16; //!< Non-memory instructions since
                                 //!< previous op.
    std::uint64_t is_write : 1;  //!< Store (1) or load (0).
};

static_assert(sizeof(Record) == 8, "keep traces compact");

/** Largest virtual address a Record can carry. */
inline constexpr std::uint64_t kMaxRecordVaddr = (1ULL << 47) - 1;

/** Largest instruction gap a Record can carry. */
inline constexpr std::uint32_t kMaxRecordGap = (1U << 16) - 1;

/** Exit through util::fatal() naming the field out of Record's range. */
[[noreturn]] void recordOutOfRange(addr::Addr vaddr,
                                   std::uint32_t inst_gap);

/**
 * The Record of one memory operation.  Out-of-range values (vaddr above
 * 47 bits, gap above 16) are fatal: truncating them would silently
 * corrupt the trace.
 */
inline Record
makeRecord(addr::Addr vaddr, bool is_write, std::uint32_t inst_gap)
{
    if (vaddr > kMaxRecordVaddr || inst_gap > kMaxRecordGap) [[unlikely]]
        recordOutOfRange(vaddr, inst_gap);
    Record r{};
    r.vaddr = vaddr;
    r.inst_gap = inst_gap;
    r.is_write = is_write;
    return r;
}

} // namespace rmcc::trace

#endif // RMCC_TRACE_RECORD_HPP

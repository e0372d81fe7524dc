/**
 * @file
 * Trace-layer tests: buffer bounds and statistics, traced-heap address
 * assignment, and recorded load/store streams.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "trace/trace_buffer.hpp"
#include "trace/traced_memory.hpp"

using namespace rmcc::trace;
using rmcc::addr::kHugePageSize;

TEST(TraceBuffer, CapacityEnforced)
{
    TraceBuffer buf(3);
    for (int i = 0; i < 10; ++i)
        buf.append(64 * static_cast<std::uint64_t>(i), false, 0);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.size(), 3u);
}

TEST(TraceBuffer, StatsTrackWritesAndInstructions)
{
    TraceBuffer buf(10);
    buf.append(0, false, 4);
    buf.append(64, true, 9);
    EXPECT_EQ(buf.writes(), 1u);
    EXPECT_EQ(buf.totalInstructions(), 2u + 4 + 9);
}

TEST(TraceBuffer, DistinctBlocks)
{
    TraceBuffer buf(10);
    buf.append(0, false, 0);
    buf.append(32, false, 0);  // same 64 B block
    buf.append(64, false, 0);  // next block
    buf.append(200, true, 0);  // third block
    EXPECT_EQ(buf.distinctBlocks(), 3u);
}

TEST(TracedHeap, AllocationsAreHugePageAlignedAndDisjoint)
{
    TraceBuffer buf(10);
    TracedHeap heap(buf, 0.0, 1);
    const auto a = heap.allocate(1000, 8, "a");
    const auto b = heap.allocate(1000, 8, "b");
    EXPECT_EQ(a % kHugePageSize, 0u);
    EXPECT_EQ(b % kHugePageSize, 0u);
    EXPECT_GE(b, a + 8000);
}

TEST(TracedArray, RecordsAccessesAtElementAddresses)
{
    TraceBuffer buf(100);
    TracedHeap heap(buf, 0.0, 1);
    TracedArray<std::uint64_t> arr(heap, 64, "arr");
    arr.set(3, 42);
    EXPECT_EQ(arr.get(3), 42u);
    heap.flush();
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_TRUE(buf.records()[0].is_write);
    EXPECT_FALSE(buf.records()[1].is_write);
    EXPECT_EQ(buf.records()[0].vaddr, arr.base() + 3 * 8);
    EXPECT_EQ(buf.records()[1].vaddr, buf.records()[0].vaddr);
}

TEST(TracedArray, RawAccessIsUntraced)
{
    TraceBuffer buf(100);
    TracedHeap heap(buf, 0.0, 1);
    TracedArray<int> arr(heap, 8, "arr");
    arr.raw(2) = 7;
    EXPECT_EQ(arr.raw(2), 7);
    heap.flush();
    EXPECT_EQ(buf.size(), 0u);
}

TEST(TracedHeap, DoneWhenBufferFull)
{
    TraceBuffer buf(2);
    TracedHeap heap(buf, 0.0, 1);
    TracedArray<int> arr(heap, 8, "arr");
    EXPECT_FALSE(heap.done());
    arr.set(0, 1);
    arr.set(1, 2);
    EXPECT_TRUE(heap.done());
}

TEST(TracedHeap, AccessesPastAFullSinkAreNotAppended)
{
    // A kernel checks done() between operations; one operation's later
    // accesses may find the sink full.  They are skipped, not dropped.
    TraceBuffer buf(2);
    TracedHeap heap(buf, 3.0, 1);
    TracedArray<int> arr(heap, 8, "arr");
    testing::internal::CaptureStderr();
    arr.set(0, 1);
    arr.set(1, arr.get(0));
    arr.set(2, 3);
    heap.flush();
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_TRUE(log.empty()) << log;
    EXPECT_EQ(arr.raw(2), 3);
}

TEST(TracedHeap, InstructionGapsFollowDensity)
{
    TraceBuffer buf(5000);
    TracedHeap heap(buf, 6.0, 99);
    TracedArray<int> arr(heap, 64, "arr");
    for (int i = 0; i < 5000 && !heap.done(); ++i)
        arr.set(static_cast<std::uint64_t>(i) % 64, i);
    heap.flush();
    const double mean =
        static_cast<double>(buf.totalInstructions() - buf.size()) /
        static_cast<double>(buf.size());
    EXPECT_NEAR(mean, 6.0, 1.0);
}

TEST(TraceBuffer, DroppedCountsOverflowAppends)
{
    TraceBuffer buf(3);
    EXPECT_EQ(buf.dropped(), 0u);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 10; ++i)
        buf.append(64 * static_cast<std::uint64_t>(i), false, 0);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("trace buffer full"), std::string::npos) << log;
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.dropped(), 7u);
    // Stats cover only retained records.
    EXPECT_EQ(buf.totalInstructions(), 3u);
    EXPECT_EQ(buf.writes(), 0u);
}

TEST(TraceBuffer, DistinctBlocksCacheInvalidatedByAppend)
{
    TraceBuffer buf(10);
    buf.append(0, false, 0);
    EXPECT_EQ(buf.distinctBlocks(), 1u);
    EXPECT_EQ(buf.distinctBlocks(), 1u); // cached answer
    buf.append(64, false, 0);            // append must invalidate it
    EXPECT_EQ(buf.distinctBlocks(), 2u);
    buf.append(96, true, 0); // same 64 B block as the previous record
    EXPECT_EQ(buf.distinctBlocks(), 2u);
}

TEST(TraceRecord, PacksIntoEightBytes)
{
    static_assert(sizeof(Record) == 8);
    TraceBuffer buf(2);
    buf.append(kMaxRecordVaddr, true, kMaxRecordGap);
    buf.append(0, false, 0);
    EXPECT_EQ(buf.records()[0].vaddr, kMaxRecordVaddr);
    EXPECT_EQ(buf.records()[0].inst_gap, kMaxRecordGap);
    EXPECT_TRUE(buf.records()[0].is_write);
    EXPECT_EQ(buf.records()[1].vaddr, 0u);
    EXPECT_FALSE(buf.records()[1].is_write);
}

TEST(TracedHeap, StagedRecordsReachTheSinkOnlyOnFlush)
{
    // The heap stages records and hands them over in blocks; done() is
    // counted by the heap, so it is exact before anything is flushed.
    TraceBuffer buf(1000);
    TracedHeap heap(buf, 2.0, 3);
    TracedArray<int> arr(heap, 16, "arr");
    for (int i = 0; i < 1000; ++i)
        arr.set(static_cast<std::uint64_t>(i) % 16, i);
    EXPECT_TRUE(heap.done());
    EXPECT_LT(buf.size(), 1000u); // the last partial block is staged
    heap.flush();
    EXPECT_EQ(buf.size(), 1000u);
    EXPECT_EQ(buf.dropped(), 0u);
    heap.flush(); // nothing staged: a no-op
    EXPECT_EQ(buf.size(), 1000u);
}

TEST(TracedHeap, DestructorFlushesTheLastBlock)
{
    TraceBuffer buf(100);
    {
        TracedHeap heap(buf, 0.0, 1);
        TracedArray<int> arr(heap, 8, "arr");
        arr.set(1, 1);
        arr.get(1);
    }
    EXPECT_EQ(buf.size(), 2u);
}

TEST(TracedHeapDeathTest, OverRangeVaddrIsFatalThroughTheStagedPath)
{
    EXPECT_EXIT(
        {
            TraceBuffer buf(10);
            TracedHeap heap(buf, 0.0, 1);
            const auto base = heap.allocate(1, 8, "arr");
            // base + 2^47: one past what a Record's 47 bits can carry.
            heap.load(base, (1ULL << 47) / 8, 8);
        },
        testing::ExitedWithCode(1), "vaddr 0x[0-9a-f]+ exceeds 47 bits");
}

TEST(TracedHeapDeathTest, OverRangeGapIsFatalThroughTheStagedPath)
{
    EXPECT_EXIT(
        {
            TraceBuffer buf(100);
            // A mean gap of 1e8 draws gaps far above 16 bits.
            TracedHeap heap(buf, 1.0e8, 1);
            const auto base = heap.allocate(8, 8, "arr");
            for (std::uint64_t i = 0; i < 100; ++i)
                heap.store(base, i % 8, 8);
        },
        testing::ExitedWithCode(1), "inst_gap [0-9]+ exceeds 16 bits");
}

TEST(TraceBuffer, AppendBlockStoresUpToCapacityAndDropsTheRest)
{
    TraceBuffer buf(5);
    std::vector<Record> block;
    for (std::uint64_t i = 0; i < 8; ++i)
        block.push_back(makeRecord(64 * i, i % 2 == 1,
                                   static_cast<std::uint32_t>(i)));
    testing::internal::CaptureStderr();
    buf.appendBlock(block.data(), 3);
    EXPECT_EQ(buf.remaining(), 2u);
    buf.appendBlock(block.data() + 3, 5);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("trace buffer full"), std::string::npos) << log;
    EXPECT_EQ(buf.size(), 5u);
    EXPECT_EQ(buf.dropped(), 3u);
    EXPECT_TRUE(buf.full());
    // Totals cover the five stored records: gaps 0-4, writes 1 and 3.
    EXPECT_EQ(buf.totalInstructions(), 5u + 0 + 1 + 2 + 3 + 4);
    EXPECT_EQ(buf.writes(), 2u);
    EXPECT_EQ(buf.records()[4].vaddr, 256u);
}

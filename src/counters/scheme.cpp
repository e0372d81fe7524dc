#include "counters/scheme.hpp"

namespace rmcc::ctr
{

CounterScheme::CounterScheme(std::uint64_t blocks)
    : dirty_((blocks + kChunkBlocks - 1) / kChunkBlocks, 0)
{
}

void
CounterScheme::randomInit(util::Rng &rng, addr::CounterValue mean)
{
    const std::uint64_t chunks = dirty_.size();
    const std::uint64_t blocks =
        (entities() + coverage() - 1) / coverage();
    chunk_rng_.clear();
    chunk_rng_.reserve(chunks);
    init_mean_ = mean;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        chunk_rng_.push_back(rng);
        const std::uint64_t last =
            std::min(blocks, (c + 1) * kChunkBlocks);
        for (addr::CounterBlockId cb = c * kChunkBlocks; cb < last; ++cb)
            initBlock(cb, rng, mean);
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
    init_totals_ = totals_;
}

void
CounterScheme::restoreInit()
{
    const std::uint64_t blocks =
        (entities() + coverage() - 1) / coverage();
    for (std::uint64_t c = 0; c < dirty_.size(); ++c) {
        if (dirty_[c] == 0)
            continue;
        dirty_[c] = 0;
        const std::uint64_t last =
            std::min(blocks, (c + 1) * kChunkBlocks);
        if (chunk_rng_.empty()) {
            for (addr::CounterBlockId cb = c * kChunkBlocks; cb < last; ++cb)
                clearBlock(cb);
            continue;
        }
        util::Rng rng = chunk_rng_[c];
        for (addr::CounterBlockId cb = c * kChunkBlocks; cb < last; ++cb)
            initBlock(cb, rng, init_mean_);
    }
    totals_ = init_totals_;
}

} // namespace rmcc::ctr

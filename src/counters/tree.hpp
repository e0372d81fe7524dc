/**
 * @file
 * The integrity tree: a stack of counter schemes where level k's counters
 * protect level k-1's counter blocks (level 0 protects data blocks).
 *
 * A data write increments the block's L0 counter.  When an L0 counter
 * block is written back to memory, its own counter — an L1 counter —
 * increments, and so on up to the on-chip root.  Morphable Counters use a
 * four-level tree for 128 GB (paper Sec V); the depth here follows from
 * the protected size and the scheme's coverage.
 */
#ifndef RMCC_COUNTERS_TREE_HPP
#define RMCC_COUNTERS_TREE_HPP

#include <memory>
#include <vector>

#include "address/layout.hpp"
#include "counters/scheme.hpp"

namespace rmcc::ctr
{

/**
 * Multi-level counter tree over a protected data region.
 */
class IntegrityTree
{
  public:
    /**
     * @param kind counter scheme used at every level.
     * @param data_blocks number of protected data blocks.
     */
    IntegrityTree(SchemeKind kind, std::uint64_t data_blocks);

    /** Scheme kind in use. */
    SchemeKind kind() const { return kind_; }

    /** Number of in-memory levels (the root above them stays on-chip). */
    unsigned levels() const
    {
        return static_cast<unsigned>(schemes_.size());
    }

    /**
     * Counter scheme of a level.  Level 0 entities are data blocks; level
     * k>0 entities are level k-1 counter blocks.
     */
    CounterScheme &level(unsigned k) { return *schemes_[k]; }
    const CounterScheme &level(unsigned k) const { return *schemes_[k]; }

    /** Number of counter blocks at a level. */
    std::uint64_t blocksAt(unsigned k) const;

    /** Physical address of counter block cb at level k. */
    addr::Addr blockAddr(unsigned k, addr::CounterBlockId cb) const
    {
        return layout_.counterBlockAddr(k, cb);
    }

    /** The address-space layout (data + counter regions). */
    const addr::MemoryLayout &layout() const { return layout_; }

    /** Randomize all levels' counters around the given mean. */
    void randomInit(util::Rng &rng, addr::CounterValue mean);

    /**
     * Return every level to its state right after randomInit() (all
     * zeros if it never ran), redrawing only the chunks mutated since;
     * see CounterScheme::restoreInit.
     */
    void restoreInit();

    /** Largest counter value across all levels. */
    addr::CounterValue observedMax() const;

    /** Total overflow events across all levels. */
    std::uint64_t totalOverflows() const;

    /** Overflow events at one level (observability probe). */
    std::uint64_t overflowsAt(unsigned k) const
    {
        return schemes_[k]->overflows();
    }

  private:
    SchemeKind kind_;
    addr::MemoryLayout layout_;
    std::vector<std::unique_ptr<CounterScheme>> schemes_;
};

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_TREE_HPP

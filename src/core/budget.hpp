/**
 * @file
 * Per-epoch traffic-overhead budget (paper Sec IV-C1/C2).
 *
 * RMCC may cause extra memory traffic in two ways: read-triggered
 * memoization-aware updates (a data block is rewritten just to relevel its
 * counter) and extra counter overflows (a write jumps past the minor range
 * to reach a memoized value).  Both draw from a budget of 1% of memory
 * accesses, replenished every 1 M-access epoch; leftover budget carries
 * over.  When the budget is exhausted, RMCC reverts to the baseline
 * counter update for the rest of the epoch, except for writes that would
 * overflow under the baseline anyway.
 */
#ifndef RMCC_CORE_BUDGET_HPP
#define RMCC_CORE_BUDGET_HPP

#include <cstdint>

namespace rmcc::core
{

/** Budget tuning. */
struct BudgetConfig
{
    double fraction = 0.01;                  //!< Overhead budget fraction.
    std::uint64_t epoch_accesses = 1000000;  //!< Accesses per epoch.
    /**
     * Budget balance carried in from the (unsimulated) earlier lifetime.
     * The paper carries leftover budget across epochs over whole-lifetime
     * runs; simulating a window that joins a workload mid-life therefore
     * starts with accrued balance.  See DESIGN.md (substitutions).
     */
    double initial_pool_accesses = 0.0;
};

/**
 * Epoch-replenished overhead-traffic allowance, denominated in 64 B
 * memory accesses.
 */
class TrafficBudget
{
  public:
    explicit TrafficBudget(const BudgetConfig &cfg = BudgetConfig());

    /**
     * Record one memory access toward epoch progress.
     * @return true exactly when this access closes an epoch.
     */
    bool onAccess()
    {
        ++total_accesses_;
        // Continuous accrual: identical cumulative allowance at every
        // epoch boundary to the paper's replenish-at-epoch-start +
        // carry-over rule, but usable smoothly within short simulation
        // windows.
        pool_ += cfg_.fraction;
        if (++in_epoch_ < cfg_.epoch_accesses)
            return false;
        in_epoch_ = 0;
        ++epochs_;
        return true;
    }

    /** Overhead accesses available right now. */
    double available() const { return pool_; }

    /** True if `cost` accesses of overhead could be spent. */
    bool canSpend(std::uint64_t cost) const
    {
        return pool_ >= static_cast<double>(cost);
    }

    /** Spend if affordable; returns whether the charge went through. */
    bool trySpend(std::uint64_t cost);

    /** Unconditionally charge (for overhead that happens regardless). */
    void forceSpend(std::uint64_t cost);

    /** Overwrite the pool (lifetime-warmup grant/drain). */
    void setPool(double accesses) { pool_ = accesses; }

    /** Lifetime overhead accesses charged. */
    std::uint64_t totalSpent() const { return total_spent_; }

    /** Lifetime accesses observed. */
    std::uint64_t totalAccesses() const { return total_accesses_; }

    /** Epochs completed. */
    std::uint64_t epochs() const { return epochs_; }

    const BudgetConfig &config() const { return cfg_; }

  private:
    BudgetConfig cfg_;
    double pool_;
    std::uint64_t in_epoch_ = 0;
    std::uint64_t epochs_ = 0;
    std::uint64_t total_spent_ = 0;
    std::uint64_t total_accesses_ = 0;
};

} // namespace rmcc::core

#endif // RMCC_CORE_BUDGET_HPP

#include "core/budget.hpp"

namespace rmcc::core
{

TrafficBudget::TrafficBudget(const BudgetConfig &cfg)
    : cfg_(cfg), pool_(cfg.initial_pool_accesses)
{
}

bool
TrafficBudget::trySpend(std::uint64_t cost)
{
    if (!canSpend(cost))
        return false;
    pool_ -= static_cast<double>(cost);
    total_spent_ += cost;
    return true;
}

void
TrafficBudget::forceSpend(std::uint64_t cost)
{
    pool_ -= static_cast<double>(cost);
    if (pool_ < 0.0)
        pool_ = 0.0;
    total_spent_ += cost;
}

} // namespace rmcc::core

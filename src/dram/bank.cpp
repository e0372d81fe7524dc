#include "dram/bank.hpp"

#include <algorithm>

namespace rmcc::dram
{

double
Bank::issue(double t_ns, std::uint64_t row, const DramConfig &cfg,
            double burst_ns, RowOutcome &outcome)
{
    double t = std::max(t_ns, ready_ns_);

    // 500 ns open-row timeout (Table I): the controller precharges idle
    // rows in the background, so a long-idle bank behaves as closed.
    if (open_row_ >= 0 && t - last_use_ns_ > cfg.row_timeout_ns)
        open_row_ = -1;

    double data_at;
    if (open_row_ == static_cast<std::int64_t>(row)) {
        outcome = RowOutcome::Hit;
        data_at = t + cfg.tCL_ns;
    } else if (open_row_ < 0) {
        outcome = RowOutcome::Closed;
        data_at = t + cfg.tRCD_ns + cfg.tCL_ns;
    } else {
        outcome = RowOutcome::Conflict;
        data_at = t + cfg.tRP_ns + cfg.tRCD_ns + cfg.tCL_ns;
    }
    open_row_ = static_cast<std::int64_t>(row);
    last_use_ns_ = data_at;
    // The bank can overlap CAS of back-to-back hits; approximate command
    // occupancy with the burst time for hits and the full activate path
    // otherwise.
    ready_ns_ = data_at - cfg.tCL_ns + burst_ns;
    return data_at;
}

} // namespace rmcc::dram

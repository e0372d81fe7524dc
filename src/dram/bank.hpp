/**
 * @file
 * Per-bank DRAM state machine: open row, busy window, row-timeout policy.
 */
#ifndef RMCC_DRAM_BANK_HPP
#define RMCC_DRAM_BANK_HPP

#include <algorithm>
#include <cstdint>

#include "address/types.hpp"
#include "dram/config.hpp"

namespace rmcc::dram
{

/** Row-buffer outcome of a column access. */
enum class RowOutcome
{
    Hit,      //!< Row already open.
    Closed,   //!< Bank precharged (e.g. after timeout): ACT needed.
    Conflict, //!< Different row open: PRE + ACT needed.
};

/**
 * Timing state of one DRAM bank.
 */
class Bank
{
  public:
    /**
     * Issue a column access to `row` at earliest time `t_ns`.
     *
     * @param t_ns earliest issue time (ns).
     * @param row target row.
     * @param cfg timing parameters.
     * @param burst_ns cfg.burstNs(), which the caller computes once.
     * @param[out] outcome row-buffer outcome for statistics.
     * @return time the requested data is available at the bank (before
     *         bus transfer), ns.
     */
    double issue(double t_ns, std::uint64_t row, const DramConfig &cfg,
                 double burst_ns, RowOutcome &outcome)
    {
        double t = std::max(t_ns, ready_ns_);

        // 500 ns open-row timeout (Table I): the controller precharges
        // idle rows in the background, so a long-idle bank behaves as
        // closed.
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
        // The bank can overlap CAS of back-to-back hits; approximate
        // command occupancy with the burst time for hits and the full
        // activate path otherwise.
        ready_ns_ = data_at - cfg.tCL_ns + burst_ns;
        return data_at;
    }

    /** Open row, or -1 when precharged. */
    std::int64_t openRow() const { return open_row_; }

    /** Earliest time the bank can accept a new command. */
    double readyAt() const { return ready_ns_; }

  private:
    std::int64_t open_row_ = -1;
    double ready_ns_ = 0.0;
    double last_use_ns_ = -1.0e18;
};

} // namespace rmcc::dram

#endif // RMCC_DRAM_BANK_HPP

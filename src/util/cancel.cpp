#include "util/cancel.hpp"

#include <string>

namespace rmcc::util
{

namespace
{

struct ScopeState
{
    std::chrono::steady_clock::time_point deadline{};
    std::uint64_t timeout_ms = 0; //!< 0: no scope, or one without deadline.
};

//! One scope per thread, never shared: no lock, nothing for the
//! thread-safety analysis to track.
thread_local ScopeState tls_scope;

} // namespace

CancelScope::CancelScope(std::uint64_t timeout_ms)
    : prev_deadline_(tls_scope.deadline),
      prev_timeout_ms_(tls_scope.timeout_ms)
{
    tls_scope.timeout_ms = timeout_ms;
    tls_scope.deadline =
        timeout_ms > 0 ? std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(timeout_ms)
                       : std::chrono::steady_clock::time_point{};
}

CancelScope::~CancelScope()
{
    tls_scope.deadline = prev_deadline_;
    tls_scope.timeout_ms = prev_timeout_ms_;
}

void
pollCancel()
{
    if (tls_scope.timeout_ms == 0)
        return;
    if (std::chrono::steady_clock::now() >= tls_scope.deadline)
        throw CancelledError(
            "cancelled: cell exceeded RMCC_CELL_TIMEOUT_MS=" +
            std::to_string(tls_scope.timeout_ms) + " ms");
}

} // namespace rmcc::util

/**
 * @file
 * Strict environment-variable parsing for the RMCC_* knobs.
 *
 * The runner knobs (RMCC_JOBS, RMCC_CELL_TIMEOUT_MS, ...) used to fall
 * back silently when set to garbage, which turns a typo into an
 * hours-long surprise (a suite quietly running single-threaded, a
 * timeout quietly disabled).  These helpers reject malformed values
 * loudly instead: a std::runtime_error naming the variable and the
 * offending text.
 */
#ifndef RMCC_UTIL_ENV_HPP
#define RMCC_UTIL_ENV_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rmcc::util
{

/**
 * Value of an integer environment variable.
 *
 * @return nullopt when the variable is unset or empty.
 * @throws std::runtime_error when the value is not a plain non-negative
 *         decimal integer (trailing junk, sign, overflow, "banana", ...);
 *         the message names the variable and quotes the value.
 */
std::optional<std::uint64_t> envUnsigned(const char *name);

/**
 * envUnsigned() with a fallback for the unset/empty case.  Parsing errors
 * still throw — only absence is defaulted.
 */
std::uint64_t envUnsignedOr(const char *name, std::uint64_t fallback);

/**
 * Positive-integer variant for knobs where zero makes no sense (thread
 * counts).  Unset/empty returns nullopt; zero throws like garbage does.
 */
std::optional<std::uint64_t> envPositive(const char *name);

/**
 * Value of an enumerated environment variable (e.g. RMCC_CRYPTO_IMPL).
 *
 * @return fallback when the variable is unset or empty, otherwise the
 *         matching choice.
 * @throws std::runtime_error when the value matches none of the choices;
 *         the message names the variable, quotes the value, and lists the
 *         accepted spellings.  Matching is exact (case-sensitive).
 */
std::string envChoice(const char *name,
                      const std::vector<std::string> &choices,
                      const std::string &fallback);

/**
 * Value of a free-form string environment variable (paths, labels).
 *
 * @return nullopt when the variable is unset or empty — the two cases
 *         are deliberately identical, matching every other accessor
 *         here, so `RMCC_TRACE_DIR= ./run` behaves like unset.
 */
std::optional<std::string> envString(const char *name);

/** envString() with a fallback for the unset/empty case. */
std::string envStringOr(const char *name, const std::string &fallback);

} // namespace rmcc::util

#endif // RMCC_UTIL_ENV_HPP

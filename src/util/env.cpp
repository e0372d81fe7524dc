#include "util/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rmcc::util
{

namespace
{

[[noreturn]] void
rejectValue(const char *name, const char *value, const char *why)
{
    throw std::runtime_error(std::string(name) + ": expected " + why +
                             ", got \"" + value + "\"");
}

} // namespace

std::optional<std::uint64_t>
envUnsigned(const char *name)
{
    const char *value = std::getenv(name);
    if (!value || value[0] == '\0')
        return std::nullopt;
    // Reject signs and whitespace up front: strtoull would accept "-2"
    // by wrapping it to a huge unsigned value.
    if (!std::isdigit(static_cast<unsigned char>(value[0])))
        rejectValue(name, value, "a non-negative integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0')
        rejectValue(name, value, "a non-negative integer");
    if (errno == ERANGE)
        rejectValue(name, value, "an integer within 64 bits");
    return static_cast<std::uint64_t>(v);
}

std::uint64_t
envUnsignedOr(const char *name, std::uint64_t fallback)
{
    return envUnsigned(name).value_or(fallback);
}

std::optional<std::uint64_t>
envPositive(const char *name)
{
    const std::optional<std::uint64_t> v = envUnsigned(name);
    if (v && *v == 0) {
        const char *raw = std::getenv(name);
        throw std::runtime_error(std::string(name) +
                                 ": expected a positive integer, got \"" +
                                 (raw ? raw : "") + "\"");
    }
    return v;
}

std::string
envChoice(const char *name, const std::vector<std::string> &choices,
          const std::string &fallback)
{
    const char *value = std::getenv(name);
    if (!value || value[0] == '\0')
        return fallback;
    for (const std::string &c : choices)
        if (c == value)
            return c;
    std::string expected = "one of {";
    for (std::size_t i = 0; i < choices.size(); ++i)
        expected += (i ? ", " : "") + choices[i];
    expected += "}";
    rejectValue(name, value, expected.c_str());
}

std::optional<std::string>
envString(const char *name)
{
    const char *value = std::getenv(name);
    if (!value || value[0] == '\0')
        return std::nullopt;
    return std::string(value);
}

std::string
envStringOr(const char *name, const std::string &fallback)
{
    return envString(name).value_or(fallback);
}

} // namespace rmcc::util

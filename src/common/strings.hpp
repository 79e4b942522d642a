// strings.hpp — string helpers used by CSV I/O and report formatting.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace shep {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses a double; returns nullopt on any trailing garbage or empty input.
[[nodiscard]] std::optional<double> ParseDouble(std::string_view s);

/// Parses a non-negative integer; nullopt on failure.
[[nodiscard]] std::optional<long long> ParseInt(std::string_view s);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatFixed(double value, int digits);

/// Formats a ratio as a percentage string, e.g. 0.1580 -> "15.80%".
std::string FormatPercent(double ratio, int digits = 2);

}  // namespace shep

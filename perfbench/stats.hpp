// stats.hpp — summary statistics and metric-name rules of the benchmark.
//
// Header-only so the benchmark binary and its self-test share one
// definition.  Quartiles follow Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), so the spreads this binary prints are
// the spreads a reader recomputes from its JSON output.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `values`; throws on an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// First, second and third quartile by the exclusive method of Python's
/// statistics.quantiles.  A single sample is its own quartiles.
inline Quartiles ComputeQuartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no samples");
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  const long m = ld + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// The highest percentile of a fixed ladder that still has at least
/// kMinBeyond samples ranked above it.
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 90 for p90.
  double value = 0.0;       ///< nearest-rank sample at that percentile.
  std::size_t beyond = 0;   ///< samples ranked above it.
};

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile from {99.9, 99, 95, 90, 75}, highest first,
/// whose rank leaves >= kMinBeyond samples beyond it; nullopt when the
/// sample is too small for even p75 (fewer than 40 samples).
inline std::optional<TailPercentile> HighestTail(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Integer rank arithmetic in tenths of a percent avoids rounding p*n.
    const auto tenths = static_cast<std::size_t>(std::lround(p * 10.0));
    const std::size_t rank = (tenths * n + 999) / 1000;  // ceil(p% of n)
    if (rank == 0 || n - rank < kMinBeyond) continue;
    return TailPercentile{p, values[rank - 1], n - rank};
  }
  return std::nullopt;
}

/// Metric names: 1-64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

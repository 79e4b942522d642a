// mathutil.hpp — small numeric helpers shared across modules.
#pragma once

#include <cstddef>
#include <span>

namespace shep {

/// Arithmetic mean of a span.  Returns 0 for an empty span (callers that need
/// to distinguish emptiness check size() first).
double Mean(std::span<const double> xs);

/// Population variance (mean of squared deviations).  0 for size < 2.
double Variance(std::span<const double> xs);

/// Maximum value; 0 for an empty span.
double MaxValue(std::span<const double> xs);

/// Clamps x into [lo, hi].
constexpr double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Streaming count/mean/variance via Welford's update.  Unlike the
/// textbook sum/sum-of-squares accumulator (variance = E[x²] − E[x]²,
/// which cancels catastrophically once the mean dwarfs the spread — after
/// a year of slots a duty-cycle stddev computed that way can lose every
/// significant digit), Welford's recurrence keeps the squared deviations
/// directly and stays accurate for arbitrarily long streams.
struct WelfordMoments {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean.

  void Add(double x) {
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }

  /// Population variance; 0 when count < 2.  m2 is a sum of non-negative
  /// terms, so no clamping against negative variance is ever needed.
  double variance() const {
    return count >= 2 ? m2 / static_cast<double>(count) : 0.0;
  }
  double stddev() const;
};

}  // namespace shep

// Tests for common/mathutil.hpp.
#include "common/mathutil.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace shep {
namespace {

TEST(Mean, EmptyIsZero) {
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(Mean, SimpleAverage) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
}

TEST(Variance, ConstantIsZero) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(Variance(xs), 0.0);
}

TEST(Variance, KnownValue) {
  const std::vector<double> xs{1.0, 3.0};
  EXPECT_DOUBLE_EQ(Variance(xs), 1.0);  // mean 2, deviations ±1
}

TEST(MaxValue, LargestOrZeroWhenEmpty) {
  const std::vector<double> xs{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(MaxValue(xs), 7.0);
  EXPECT_DOUBLE_EQ(MaxValue({}), 0.0);
}

TEST(Clamp, Bounds) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(WelfordMoments, MatchesTwoPassStatistics) {
  std::vector<double> xs{0.3, 0.7, 0.45, 0.9, 0.05, 0.62, 0.31};
  WelfordMoments w;
  for (double x : xs) w.Add(x);
  EXPECT_EQ(w.count, xs.size());
  EXPECT_NEAR(w.mean, Mean(xs), 1e-15);
  EXPECT_NEAR(w.variance(), Variance(xs), 1e-15);
  EXPECT_NEAR(w.stddev(), std::sqrt(Variance(xs)), 1e-15);
}

TEST(WelfordMoments, DegenerateCounts) {
  WelfordMoments w;
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.Add(3.25);
  EXPECT_DOUBLE_EQ(w.mean, 3.25);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);  // population variance undefined at 1.
}

TEST(WelfordMoments, SurvivesCatastrophicCancellation) {
  // The regime that killed the old sum-of-squares formula: a large mean
  // with a tiny spread over a long stream.  E[x^2] and E[x]^2 agree in all
  // stored digits, so their difference is pure rounding noise — here it
  // comes out as ZERO spread (or garbage), while Welford keeps the true
  // stddev to near machine precision.
  const double mean = 1.0e9;
  const double half_spread = 1.0e-3;
  WelfordMoments welford;
  double sum = 0.0, sq_sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = mean + (i % 2 == 0 ? half_spread : -half_spread);
    welford.Add(x);
    sum += x;
    sq_sum += x * x;
  }
  const double naive_var =
      std::max(0.0, sq_sum / n - (sum / n) * (sum / n));
  // Truth: every sample is half_spread away from the mean, up to the
  // representation error of 1e9 +/- 1e-3 itself (ulp(1e9) ~ 1.2e-7, i.e.
  // ~1e-4 relative on the spread) — Welford recovers all the information
  // the stored doubles carry.
  EXPECT_NEAR(welford.stddev(), half_spread, half_spread * 1e-3);
  // And the naive formula has genuinely lost the value (off by >50 % —
  // in practice it collapses to 0 or explodes, depending on rounding).
  EXPECT_GT(std::fabs(naive_var - half_spread * half_spread),
            0.5 * half_spread * half_spread);
}

}  // namespace
}  // namespace shep

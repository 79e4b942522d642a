// Tests for timeseries/resample.hpp.
#include "timeseries/resample.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace shep {
namespace {

/// `days` of 1-minute samples ramping 0..1439 each day.
std::vector<double> MinuteRamp(std::size_t days) {
  std::vector<double> v(days * 1440);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(i % 1440);
  }
  return v;
}

TEST(DownsampleMeanInto, FiveMinuteBlocks) {
  std::vector<double> d;
  DownsampleMeanInto(MinuteRamp(1), 5, d);
  EXPECT_EQ(d.size(), 288u);
  // First block: mean(0..4) = 2.
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 7.0);
}

TEST(DownsampleMeanInto, PreservesTotalEnergy) {
  const std::vector<double> t = MinuteRamp(2);
  std::vector<double> d;
  DownsampleMeanInto(t, 5, d);
  // Each output sample stands for 5 input samples' worth of time.
  EXPECT_NEAR(std::accumulate(d.begin(), d.end(), 0.0) * 5.0,
              std::accumulate(t.begin(), t.end(), 0.0), 1e-6);
}

TEST(DownsampleMeanInto, FactorOneIsIdentity) {
  const std::vector<double> t = MinuteRamp(1);
  std::vector<double> d;
  DownsampleMeanInto(t, 1, d);
  EXPECT_EQ(d, t);
}

TEST(DownsampleMeanInto, ReusesTheOutputBuffer) {
  std::vector<double> d(5000, -1.0);
  DownsampleMeanInto(MinuteRamp(1), 5, d);
  ASSERT_EQ(d.size(), 288u);  // shrunk to fit, stale values overwritten.
  EXPECT_DOUBLE_EQ(d[287], 1437.0);
}

TEST(DownsampleMeanInto, ValidatesFactors) {
  const std::vector<double> t = MinuteRamp(1);
  std::vector<double> d;
  EXPECT_THROW(DownsampleMeanInto(t, 0, d), std::invalid_argument);
  EXPECT_THROW(DownsampleMeanInto(t, 7, d),  // 1440 % 7 != 0
               std::invalid_argument);
}

}  // namespace
}  // namespace shep

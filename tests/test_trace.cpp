// Tests for timeseries/trace.hpp.
#include "timeseries/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace shep {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

TEST(PowerTrace, BasicGeometry) {
  // 1-hour resolution -> 24 samples/day; two days.
  PowerTrace t("T", Ramp(48), 3600);
  EXPECT_EQ(t.samples_per_day(), 24u);
  EXPECT_EQ(t.days(), 2u);
  EXPECT_EQ(t.size(), 48u);
  EXPECT_EQ(t.resolution_s(), 3600);
  EXPECT_EQ(t.name(), "T");
}

TEST(PowerTrace, PaperTableOneShapes) {
  // Table I: 5-minute sites record 105120 observations over 365 days,
  // 1-minute sites 525600.
  EXPECT_EQ(365u * (86400u / 300u), 105120u);
  EXPECT_EQ(365u * (86400u / 60u), 525600u);
}

TEST(PowerTrace, DayViewAndAt) {
  PowerTrace t("T", Ramp(48), 3600);
  const auto d1 = t.day(1);
  ASSERT_EQ(d1.size(), 24u);
  EXPECT_DOUBLE_EQ(d1[0], 24.0);
  EXPECT_DOUBLE_EQ(t.at(1, 5), 29.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 0.0);
}

TEST(PowerTrace, PeakIsMaximum) {
  PowerTrace t("T", {1.0, 9.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
               3600);
  EXPECT_DOUBLE_EQ(t.peak(), 9.0);
}

TEST(PowerTrace, EnergyAccounting) {
  std::vector<double> samples(24, 2.0);  // 2 W all day at 1 h resolution
  PowerTrace t("T", samples, 3600);
  EXPECT_DOUBLE_EQ(t.day_energy_j(0), 2.0 * 86400.0);
  EXPECT_DOUBLE_EQ(t.total_energy_j(), 2.0 * 86400.0);
}

TEST(PowerTrace, RejectsBadConstruction) {
  // Resolution not dividing a day.
  EXPECT_THROW(PowerTrace("T", Ramp(10), 7), std::invalid_argument);
  // Partial day.
  EXPECT_THROW(PowerTrace("T", Ramp(25), 3600), std::invalid_argument);
  // Empty.
  EXPECT_THROW(PowerTrace("T", {}, 3600), std::invalid_argument);
  // Negative sample.
  std::vector<double> bad(24, 1.0);
  bad[3] = -0.1;
  EXPECT_THROW(PowerTrace("T", bad, 3600), std::invalid_argument);
  // Non-finite sample.
  std::vector<double> nan_samples(24, 1.0);
  nan_samples[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PowerTrace("T", nan_samples, 3600), std::invalid_argument);
}

TEST(PowerTrace, IndexValidation) {
  PowerTrace t("T", Ramp(24), 3600);
  EXPECT_THROW(t.day(1), std::invalid_argument);
  EXPECT_THROW(t.at(0, 24), std::invalid_argument);
  EXPECT_THROW(t.at(1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace shep

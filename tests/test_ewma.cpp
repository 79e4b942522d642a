// Tests for core/ewma.hpp — the Kansal et al. baseline.
#include "core/ewma.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hpp"
#include "core/predictor.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

TEST(Ewma, ValidatesConstruction) {
  EXPECT_THROW(Ewma(-0.1, 8), std::invalid_argument);
  EXPECT_THROW(Ewma(1.1, 8), std::invalid_argument);
  EXPECT_THROW(Ewma(0.5, 1), std::invalid_argument);
}

TEST(Ewma, FirstDayPredictsPersistence) {
  Ewma e(0.5, 4);
  e.Observe(3.0);
  EXPECT_DOUBLE_EQ(e.PredictNext(), 3.0);  // slot 1 never seen yet
}

TEST(Ewma, SecondDayPredictsFirstDayValues) {
  Ewma e(0.5, 4);
  for (double s : {1.0, 2.0, 3.0, 4.0}) e.Observe(s);
  // Now at day 2 slot 0; prediction for slot 1 is day 1's value.
  e.Observe(9.0);
  EXPECT_DOUBLE_EQ(e.PredictNext(), 2.0);
}

TEST(Ewma, ExponentialUpdateRule) {
  // slot average after two observations x0, x1: w·x1 + (1-w)·x0.
  Ewma e(0.25, 2);
  e.Observe(8.0);   // slot 0 seeded with 8
  e.Observe(0.0);   // slot 1
  e.Observe(4.0);   // slot 0 again: 0.25*4 + 0.75*8 = 7
  e.Observe(0.0);   // slot 1; next prediction is for slot 0
  EXPECT_DOUBLE_EQ(e.PredictNext(), 7.0);
}

TEST(Ewma, WeightOneTracksYesterdayExactly) {
  Ewma e(1.0, 3);
  for (double s : {1.0, 2.0, 3.0}) e.Observe(s);
  e.Observe(5.0);
  EXPECT_DOUBLE_EQ(e.PredictNext(), 2.0);  // yesterday's slot 1
}

TEST(Ewma, WeightZeroFreezesFirstDay) {
  Ewma e(0.0, 3);
  for (double s : {1.0, 2.0, 3.0}) e.Observe(s);
  for (double s : {9.0, 9.0, 9.0}) e.Observe(s);
  e.Observe(9.0);
  EXPECT_DOUBLE_EQ(e.PredictNext(), 2.0);  // still day-1 value
}

TEST(Ewma, WarmUpEndsAfterOneFullDay) {
  // Persistence until the predicted slot has been seen once: the last slot
  // of day 0 is still unseen after two samples, slot 0 of day 1 is not.
  Ewma e(0.5, 3);
  e.Observe(1.0);
  e.Observe(2.0);
  EXPECT_DOUBLE_EQ(e.PredictNext(), 2.0);  // slot 2 unseen: persistence
  e.Observe(3.0);
  EXPECT_DOUBLE_EQ(e.PredictNext(), 1.0);  // slot 0's average, not 3.0
}

TEST(Ewma, ResetClearsState) {
  Ewma e(0.5, 3);
  for (double s : {1.0, 2.0, 3.0}) e.Observe(s);
  e.Reset();
  EXPECT_THROW(e.PredictNext(), std::invalid_argument);
  // The per-slot averages are gone too: back to first-day persistence.
  e.Observe(5.0);
  EXPECT_DOUBLE_EQ(e.PredictNext(), 5.0);  // not slot 1's old 2.0
}

TEST(Ewma, RejectsNegativeSample) {
  Ewma e(0.5, 3);
  EXPECT_THROW(e.Observe(-0.1), std::invalid_argument);
}

TEST(Ewma, LagsSuddenWeatherChange) {
  // EWMA's defining weakness vs WCMA: a sudden dark day is predicted as if
  // it were bright, because the per-slot average only updates once a day.
  Ewma e(0.5, 4);
  for (int d = 0; d < 10; ++d) {
    for (double s : {0.0, 4.0, 8.0, 2.0}) e.Observe(s);
  }
  // Dark day begins: observed 0.4 instead of 4 at slot 1; prediction for
  // slot 2 is still ≈ 8, nowhere near the dark-day ~0.8.
  e.Observe(0.0);
  e.Observe(0.4);
  EXPECT_GT(e.PredictNext(), 6.0);
}

TEST(Ewma, ConvergesOnPeriodicInput) {
  Ewma e(0.3, 4);
  for (int d = 0; d < 60; ++d) {
    for (double s : {0.0, 4.0, 8.0, 2.0}) e.Observe(s);
  }
  e.Observe(0.0);
  EXPECT_NEAR(e.PredictNext(), 4.0, 1e-6);
}

TEST(Ewma, ScoresWorseThanPersistenceOnVolatileSiteShortHorizon) {
  // Sanity of the baseline hierarchy on real-ish data at N=96 (15-min
  // horizon): pure persistence beats day-history EWMA because adjacent
  // slots are strongly correlated.
  SynthOptions opt;
  opt.days = 60;
  const auto trace = SynthesizeTrace(SiteByCode("ORNL"), opt);
  const SlotSeries series(trace, 96);
  Ewma ewma(0.5, 96);
  auto ewma_stats = ScorePredictor(ewma, series);
  Persistence persist;
  auto persist_stats = ScorePredictor(persist, series);
  ASSERT_TRUE(ewma_stats.valid());
  ASSERT_TRUE(persist_stats.valid());
  EXPECT_LT(persist_stats.mape, ewma_stats.mape);
}

}  // namespace
}  // namespace shep

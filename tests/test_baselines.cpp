// Tests for core/baselines.hpp and the WCMA identities they encode.
#include "core/baselines.hpp"

#include <gtest/gtest.h>

#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "solar/synth.hpp"
#include "sweep/sweep.hpp"

namespace shep {
namespace {

TEST(Persistence, PredictsLastObservation) {
  Persistence p;
  p.Observe(3.0);
  EXPECT_DOUBLE_EQ(p.PredictNext(), 3.0);
  p.Observe(7.0);
  EXPECT_DOUBLE_EQ(p.PredictNext(), 7.0);
}

TEST(Persistence, LifecycleAndValidation) {
  Persistence p;
  EXPECT_THROW(p.PredictNext(), std::invalid_argument);
  EXPECT_THROW(p.Observe(-1.0), std::invalid_argument);
  p.Observe(1.0);
  EXPECT_DOUBLE_EQ(p.PredictNext(), 1.0);
  p.Reset();
  EXPECT_THROW(p.PredictNext(), std::invalid_argument);
}

TEST(SlotMovingAverage, PredictsColumnMean) {
  SlotMovingAverage sma(2, 3);
  for (double s : {1.0, 2.0, 3.0}) sma.Observe(s);
  for (double s : {3.0, 4.0, 5.0}) sma.Observe(s);
  // Next slot is slot 0: mean(1, 3) = 2.
  EXPECT_DOUBLE_EQ(sma.PredictNext(), 2.0);
  sma.Observe(0.0);  // now predicting slot 1: mean(2, 4) = 3.
  EXPECT_DOUBLE_EQ(sma.PredictNext(), 3.0);
}

TEST(SlotMovingAverage, FallsBackToPersistenceOnDayOne) {
  SlotMovingAverage sma(3, 4);
  sma.Observe(5.0);
  EXPECT_DOUBLE_EQ(sma.PredictNext(), 5.0);
}

TEST(SlotMovingAverage, NameAndReset) {
  SlotMovingAverage sma(7, 4);
  EXPECT_NE(sma.Name().find("7"), std::string::npos);
  for (int i = 0; i < 8; ++i) sma.Observe(1.0);
  sma.Reset();
  EXPECT_THROW(sma.PredictNext(), std::invalid_argument);
}

TEST(PreviousDay, PredictsYesterdaySlot) {
  PreviousDay pd(3);
  for (double s : {1.0, 2.0, 3.0}) pd.Observe(s);
  // Predicting slot 0 of day 2 -> yesterday's slot 0 = 1.
  EXPECT_DOUBLE_EQ(pd.PredictNext(), 1.0);
  pd.Observe(9.0);
  EXPECT_DOUBLE_EQ(pd.PredictNext(), 2.0);
}

TEST(PreviousDay, DayOneFallsBackToPersistence) {
  PreviousDay pd(3);
  pd.Observe(4.0);
  EXPECT_DOUBLE_EQ(pd.PredictNext(), 4.0);
}

// --- Identities tying the baselines to the WCMA design space -------------

SlotSeries EcsuSeries(int n) {
  SynthOptions opt;
  opt.days = 40;
  static const auto trace = SynthesizeTrace(SiteByCode("ECSU"), SynthOptions{
                                                                    40, 1, 0});
  return SlotSeries(trace, n);
}

TEST(Identities, WcmaAlphaOneEqualsPersistenceEverywhere) {
  const auto series = EcsuSeries(24);
  WcmaParams p;
  p.alpha = 1.0;
  p.days = 5;
  p.slots_k = 2;
  Wcma wcma(p, 24);
  Persistence persist;
  const auto a = RunPredictor(wcma, series);
  const auto b = RunPredictor(persist, series);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i].predicted, b[i].predicted) << "i=" << i;
  }
}

TEST(Identities, WcmaAlphaZeroUniformPhiOnIdenticalDaysEqualsSma) {
  // On a perfectly periodic input all η == 1 (lit slots), so α=0 WCMA
  // reduces to the slot moving average.
  std::vector<double> samples;
  for (int d = 0; d < 6; ++d) {
    for (double s : {0.0, 1.0, 2.0, 1.0}) samples.push_back(s);
  }
  PowerTrace trace("flatdays", samples, kSecondsPerDay / 4);
  SlotSeries series(trace, 4);
  WcmaParams p;
  p.alpha = 0.0;
  p.days = 3;
  p.slots_k = 2;
  Wcma wcma(p, 4);
  SlotMovingAverage sma(3, 4);
  const auto a = RunPredictor(wcma, series);
  const auto b = RunPredictor(sma, series);
  for (std::size_t i = 3 * 4; i < a.size(); ++i) {  // past warm-up
    EXPECT_NEAR(a[i].predicted, b[i].predicted, 1e-12) << "i=" << i;
  }
}

TEST(Identities, PreviousDayEqualsSmaWithDOne) {
  const auto series = EcsuSeries(24);
  PreviousDay pd(24);
  SlotMovingAverage sma(1, 24);
  const auto a = RunPredictor(pd, series);
  const auto b = RunPredictor(sma, series);
  for (std::size_t i = 24; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i].predicted, b[i].predicted) << "i=" << i;
  }
}

TEST(Hierarchy, TunedWcmaBeatsAllBaselinesOnVolatileSite) {
  // The headline claim of the predictor paper [5], reproduced on our
  // substrate: the TUNED predictor (the paper always tunes per data set,
  // Sec. IV-A) beats persistence, the unconditioned average, and
  // previous-day on a volatile site.  α = 1 (pure persistence) is on the
  // grid, so "beats persistence" also certifies the optimum is interior —
  // the conditioning machinery genuinely earns its keep.
  SynthOptions opt;
  opt.days = 120;
  const auto trace = SynthesizeTrace(SiteByCode("SPMD"), opt);
  const SweepContext ctx(trace, 48);
  const auto sweep = SweepWcma(ctx, ParamGrid::Paper());
  const auto& best = sweep.BestByMape();
  EXPECT_LT(best.alpha, 1.0);  // conditioning term is used at the optimum

  const SlotSeries series(trace, 48);
  Persistence persist;
  SlotMovingAverage sma(20, 48);
  PreviousDay prev(48);
  const double wcma_mape = best.mean_stats.mape;
  EXPECT_LT(wcma_mape, ScorePredictor(persist, series).mape);
  EXPECT_LT(wcma_mape, ScorePredictor(sma, series).mape);
  EXPECT_LT(wcma_mape, ScorePredictor(prev, series).mape);
}

}  // namespace
}  // namespace shep

// Tests for core/wcma.hpp — Eq. 1–5 semantics.
#include "core/wcma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/baselines.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

// A tiny deterministic "trace": N=4 slots/day, with day d slot j boundary
// sample = base(j) * daylevel(d).
std::vector<double> MiniDay(double level) {
  return {0.0, 2.0 * level, 4.0 * level, 1.0 * level};
}

TEST(WcmaParams, Validation) {
  WcmaParams p;
  EXPECT_NO_THROW(p.Validate());
  p.alpha = 1.2;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = WcmaParams{};
  p.days = 0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = WcmaParams{};
  p.slots_k = 0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(Wcma, RejectsKNotBelowN) {
  WcmaParams p;
  p.slots_k = 4;
  EXPECT_THROW(Wcma(p, 4), std::invalid_argument);
}

TEST(Wcma, AlphaOneIsPersistence) {
  WcmaParams p;
  p.alpha = 1.0;
  p.days = 2;
  p.slots_k = 1;
  Wcma wcma(p, 4);
  Persistence persist;
  for (double level : {1.0, 0.8, 1.2, 0.9}) {
    for (double s : MiniDay(level)) {
      wcma.Observe(s);
      persist.Observe(s);
      EXPECT_DOUBLE_EQ(wcma.PredictNext(), persist.PredictNext());
    }
  }
}

TEST(Wcma, FirstPredictionFallsBackToPersistence) {
  WcmaParams p;
  p.alpha = 0.3;
  Wcma wcma(p, 8);
  wcma.Observe(5.0);
  EXPECT_DOUBLE_EQ(wcma.PredictNext(), 5.0);
}

TEST(Wcma, PredictNextBeforeObserveThrows) {
  Wcma wcma(WcmaParams{}, 8);
  EXPECT_THROW(wcma.PredictNext(), std::invalid_argument);
}

TEST(Wcma, IdenticalDaysGiveExactPrediction) {
  // If every day is identical, μ equals the day's profile, all η = 1 (in
  // lit slots), so ê(n+1) = α·ẽ(n) + (1−α)·e(n+1) — exact when the profile
  // is flat, and from the first slot on: the day-0 persistence fallback and
  // the partial-history μ also give the flat value.
  WcmaParams p;
  p.alpha = 0.4;
  p.days = 2;
  p.slots_k = 2;
  Wcma wcma(p, 4);
  const std::vector<double> flat{3.0, 3.0, 3.0, 3.0};
  for (int d = 0; d < 5; ++d) {
    for (double s : flat) {
      wcma.Observe(s);
      EXPECT_NEAR(wcma.PredictNext(), 3.0, 1e-12);
    }
  }
}

TEST(Wcma, HandComputedPrediction) {
  // Two identical history days {0, 2, 4, 1}, then a current day at half
  // brightness {0, 1}.  Predict slot 2 with α=0.5, D=2, K=1:
  //   μ2 = 4, η(last=slot1) = 1/2 = 0.5 → Φ = 0.5,
  //   ê = 0.5·1 + 0.5·(4·0.5) = 1.5.
  WcmaParams p;
  p.alpha = 0.5;
  p.days = 2;
  p.slots_k = 1;
  Wcma wcma(p, 4);
  for (int d = 0; d < 2; ++d) {
    for (double s : MiniDay(1.0)) wcma.Observe(s);
  }
  wcma.Observe(0.0);
  wcma.Observe(1.0);
  EXPECT_NEAR(wcma.PredictNext(), 1.5, 1e-12);
}

TEST(Wcma, HandComputedPhiWithKTwo) {
  // Same setup, K=2 ramp weights θ = {1/2, 1}.  Recent slots: slot0
  // (μ=0 → η=1 night guard), slot1 (η=0.5).
  //   Φ = (0.5·1 + 1·0.5) / 1.5 = 2/3;  ê = 0.5·1 + 0.5·4·(2/3) = 1.8333…
  WcmaParams p;
  p.alpha = 0.5;
  p.days = 2;
  p.slots_k = 2;
  Wcma wcma(p, 4);
  for (int d = 0; d < 2; ++d) {
    for (double s : MiniDay(1.0)) wcma.Observe(s);
  }
  wcma.Observe(0.0);
  wcma.Observe(1.0);
  EXPECT_NEAR(wcma.CurrentPhi(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(wcma.PredictNext(), 0.5 + 0.5 * 4.0 * (2.0 / 3.0), 1e-12);
}

TEST(Wcma, PhiScalesWithCurrentDayBrightness) {
  // A brighter-than-history day must push Φ above 1, a darker one below.
  auto phi_for = [](double level) {
    WcmaParams p;
    p.days = 3;
    p.slots_k = 2;
    Wcma wcma(p, 4);
    for (int d = 0; d < 3; ++d) {
      for (double s : MiniDay(1.0)) wcma.Observe(s);
    }
    for (double s : {0.0, 2.0 * level, 4.0 * level}) wcma.Observe(s);
    return wcma.CurrentPhi();
  };
  EXPECT_GT(phi_for(1.5), 1.3);
  EXPECT_LT(phi_for(0.5), 0.7);
  EXPECT_NEAR(phi_for(1.0), 1.0, 1e-9);
}

TEST(Wcma, AlphaZeroIgnoresCurrentSampleLevel) {
  // With α=0 and K=1 the prediction depends on the current sample only
  // through η; two days with the same ratio profile but different last
  // samples at the same ratio give the same prediction.
  WcmaParams p;
  p.alpha = 0.0;
  p.days = 2;
  p.slots_k = 1;
  Wcma wcma(p, 4);
  for (int d = 0; d < 2; ++d) {
    for (double s : MiniDay(1.0)) wcma.Observe(s);
  }
  wcma.Observe(0.0);
  wcma.Observe(2.0);  // η = 1
  const double pred = wcma.PredictNext();
  EXPECT_NEAR(pred, 4.0, 1e-12);  // μ2 · Φ = 4 · 1
}

TEST(Wcma, ResetRestoresInitialState) {
  WcmaParams p;
  p.days = 2;
  Wcma wcma(p, 4);
  for (int d = 0; d < 3; ++d) {
    for (double s : MiniDay(1.0)) wcma.Observe(s);
  }
  wcma.Reset();
  EXPECT_THROW(wcma.PredictNext(), std::invalid_argument);
  // The history is gone too: the first prediction is persistence again.
  wcma.Observe(2.0);
  EXPECT_DOUBLE_EQ(wcma.PredictNext(), 2.0);
}

TEST(Wcma, NameMentionsParameters) {
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 20;
  p.slots_k = 3;
  const Wcma wcma(p, 48);
  const auto name = wcma.Name();
  EXPECT_NE(name.find("0.7"), std::string::npos);
  EXPECT_NE(name.find("20"), std::string::npos);
  EXPECT_NE(name.find("3"), std::string::npos);
}

TEST(Wcma, RejectsNegativeSamples) {
  Wcma wcma(WcmaParams{}, 8);
  EXPECT_THROW(wcma.Observe(-1.0), std::invalid_argument);
}

// Property sweep: on a real synthetic trace the predictor stays finite and
// non-negative for all grid parameter combinations.
class WcmaGridTest
    : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

TEST_P(WcmaGridTest, FiniteNonNegativePredictions) {
  const auto [alpha, days_d, slots_k] = GetParam();
  SynthOptions opt;
  opt.days = static_cast<std::size_t>(days_d) + 4;
  const auto trace = SynthesizeTrace(SiteByCode("ECSU"), opt);
  const SlotSeries series(trace, 24);
  WcmaParams p;
  p.alpha = alpha;
  p.days = days_d;
  p.slots_k = slots_k;
  Wcma wcma(p, 24);
  for (std::size_t g = 0; g < series.size(); ++g) {
    wcma.Observe(series.boundary(g));
    const double pred = wcma.PredictNext();
    ASSERT_TRUE(std::isfinite(pred)) << "g=" << g;
    ASSERT_GE(pred, 0.0) << "g=" << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WcmaGridTest,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(2, 10, 20),
                       ::testing::Values(1, 3, 6)));

}  // namespace
}  // namespace shep

// Reset() parity: a predictor that is reset and re-trained must be
// indistinguishable from a freshly constructed one on the same trace.
// Guards the state-clearing path of both the double-precision and the
// fixed-point WCMA, which no other suite exercises end-to-end.
#include <gtest/gtest.h>

#include <vector>

#include "core/wcma.hpp"
#include "core/wcma_fixed.hpp"
#include "hw/costed_fixed.hpp"
#include "hw/vm_predictor.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "timeseries/slotting.hpp"

namespace shep {
namespace {

constexpr int kSlotsPerDay = 24;

const SlotSeries& Series() {
  static const SlotSeries* series = [] {
    SynthOptions opt;
    opt.days = 12;
    static const PowerTrace trace = SynthesizeTrace(SiteByCode("ECSU"), opt);
    return new SlotSeries(trace, kSlotsPerDay);
  }();
  return *series;
}

// Runs the predictor over the whole series and returns every prediction.
std::vector<double> Predictions(Predictor& p) {
  const auto& s = Series();
  std::vector<double> out;
  out.reserve(s.size());
  for (std::size_t g = 0; g < s.size(); ++g) {
    p.Observe(s.boundary(g));
    out.push_back(p.PredictNext());
  }
  return out;
}

TEST(ResetParity, WcmaMatchesFreshPredictor) {
  WcmaParams params;
  params.days = 5;
  Wcma reused(params, kSlotsPerDay);
  Predictions(reused);  // dirty the state with a full pass
  reused.Reset();

  Wcma fresh(params, kSlotsPerDay);
  const auto got = Predictions(reused);
  const auto want = Predictions(fresh);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "prediction " << i;
  }
}

TEST(ResetParity, FixedWcmaMatchesFreshPredictor) {
  WcmaParams params;
  params.days = 5;
  FixedWcma reused(params, kSlotsPerDay);
  Predictions(reused);
  reused.Reset();

  FixedWcma fresh(params, kSlotsPerDay);
  const auto got = Predictions(reused);
  const auto want = Predictions(fresh);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Fixed-point arithmetic is deterministic: bit-identical, not just close.
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "prediction " << i;
  }
}

TEST(ResetParity, VmWcmaMatchesFreshPredictor) {
  WcmaParams params;
  params.days = 5;
  VmWcmaPredictor reused(params, kSlotsPerDay);
  Predictions(reused);  // dirty the host state, the VM memory, the counters
  reused.Reset();

  VmWcmaPredictor fresh(params, kSlotsPerDay);
  const auto got = Predictions(reused);
  const auto want = Predictions(fresh);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Identical instruction streams on identical inputs: bit-identical.
    // (VM data memory persists across runs by design, but every input word
    // the routine reads is re-poked each wake-up, so stale state from the
    // pre-Reset pass must not leak through.)
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "prediction " << i;
  }
}

TEST(ResetParity, VmWcmaResetClearsCycleCounters) {
  WcmaParams params;
  params.days = 5;
  VmWcmaPredictor p(params, kSlotsPerDay);
  Predictions(p);
  ASSERT_GT(p.ComputeCost().predictions, 0u);
  ASSERT_GT(p.ComputeCost().cycles, 0.0);
  ASSERT_GT(p.ComputeCost().ops, 0u);

  p.Reset();
  EXPECT_EQ(p.ComputeCost().cycles, 0.0);
  EXPECT_EQ(p.ComputeCost().ops, 0u);
  EXPECT_EQ(p.ComputeCost().predictions, 0u);
}

TEST(ResetParity, CostedFixedWcmaMatchesBareFixedWcma) {
  // The hw wrapper must not perturb the prediction stream it forwards, and
  // its cost report must clear on Reset like the inner counters do.
  WcmaParams params;
  params.days = 5;
  CostedFixedWcma wrapped(params, kSlotsPerDay);
  FixedWcma bare(params, kSlotsPerDay);
  const auto got = Predictions(wrapped);
  const auto want = Predictions(bare);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "prediction " << i;
  }
  ASSERT_GT(wrapped.ComputeCost().cycles, 0.0);
  ASSERT_GT(wrapped.ComputeCost().predictions, 0u);
  wrapped.Reset();
  EXPECT_EQ(wrapped.ComputeCost().cycles, 0.0);
  EXPECT_EQ(wrapped.ComputeCost().ops, 0u);
  EXPECT_EQ(wrapped.ComputeCost().predictions, 0u);
}

TEST(ResetParity, FixedWcmaResetClearsOpCounters) {
  WcmaParams params;
  params.days = 5;
  FixedWcma p(params, kSlotsPerDay);
  Predictions(p);
  ASSERT_GT(p.observe_calls(), 0u);
  ASSERT_GT(p.predict_calls(), 0u);

  p.Reset();
  EXPECT_EQ(p.observe_calls(), 0u);
  EXPECT_EQ(p.predict_calls(), 0u);
  EXPECT_EQ(p.observe_ops().add + p.observe_ops().mul + p.observe_ops().div +
                p.observe_ops().load + p.observe_ops().store +
                p.observe_ops().branch,
            0u);
  EXPECT_EQ(p.predict_ops().add + p.predict_ops().mul + p.predict_ops().div +
                p.predict_ops().load + p.predict_ops().store +
                p.predict_ops().branch,
            0u);
}

}  // namespace
}  // namespace shep

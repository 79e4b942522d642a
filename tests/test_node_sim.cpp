// Tests for the node simulation (mgmt/node_sim.hpp, run through
// mgmt/node_sim_kernel.hpp) — prediction quality has operational value.
#include "mgmt/node_sim_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/baselines.hpp"
#include "core/ewma.hpp"
#include "core/wcma.hpp"
#include "mgmt/duty_cycle.hpp"
#include "mgmt/storage.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

SlotSeries MakeSeries(const char* site, std::size_t days) {
  SynthOptions opt;
  opt.days = days;
  const auto trace = SynthesizeTrace(SiteByCode(site), opt);
  return SlotSeries(trace, 48);
}

NodeSimConfig MakeConfig() {
  NodeSimConfig c;
  c.duty.slot_seconds = 1800.0;
  // Load sized to the harvester: the 1.5 W-peak panel delivers ~0.2 W on
  // average, so a 0.4 W active load settles near 50 % duty and the
  // controller genuinely has to ration energy.
  c.duty.active_power_w = 0.40;
  c.duty.sleep_power_w = 5.0e-6;
  c.duty.min_duty = 0.05;
  c.duty.level_gain = 0.10;
  // A few-hours buffer, not a day-scale one: prediction errors must be
  // able to show up as brown-outs or spilled harvest.
  c.storage.capacity_j = 4000.0;
  c.storage.charge_efficiency = 0.85;
  c.storage.leakage_w = 20.0e-6;
  c.warmup_days = 20;
  return c;
}

TEST(NodeSim, ProducesConsistentAccounting) {
  const auto series = MakeSeries("ECSU", 60);
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 20;
  p.slots_k = 2;
  Wcma predictor(p, 48);
  const auto r = SimulateNodeKernel(predictor, series, MakeConfig());
  EXPECT_EQ(r.slots, (60u - 20u) * 48u - 1u);
  EXPECT_GE(r.mean_duty, MakeConfig().duty.min_duty);
  EXPECT_LE(r.mean_duty, 1.0);
  EXPECT_GE(r.violation_rate, 0.0);
  EXPECT_LE(r.violation_rate, 1.0);
  EXPECT_GT(r.harvested_j, 0.0);
  EXPECT_GT(r.delivered_j, 0.0);
  EXPECT_GE(r.min_level_fraction, 0.0);
}

TEST(NodeSim, DeterministicForSamePredictor) {
  const auto series = MakeSeries("HSU", 40);
  WcmaParams p;
  p.days = 10;
  Wcma a(p, 48), b(p, 48);
  const auto ra = SimulateNodeKernel(a, series, MakeConfig());
  const auto rb = SimulateNodeKernel(b, series, MakeConfig());
  EXPECT_DOUBLE_EQ(ra.mean_duty, rb.mean_duty);
  EXPECT_EQ(ra.violations, rb.violations);
  EXPECT_DOUBLE_EQ(ra.overflow_j, rb.overflow_j);
}

TEST(NodeSim, NodeStaysUpMostOfTheTime) {
  const auto series = MakeSeries("PFCI", 60);
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 10;
  p.slots_k = 2;
  Wcma predictor(p, 48);
  const auto r = SimulateNodeKernel(predictor, series, MakeConfig());
  // Sunny site + conservative controller: brown-outs must be rare.
  EXPECT_LT(r.violation_rate, 0.05);
}

TEST(NodeSim, BetterPredictorDeliversBetterOperation) {
  // The paper's premise: management effectiveness is sensitive to
  // prediction accuracy.  Score = violation rate with wasted-harvest as a
  // tiebreaker; WCMA must beat the day-lagging EWMA baseline on a volatile
  // site.
  const auto series = MakeSeries("ORNL", 90);
  auto config = MakeConfig();

  WcmaParams p;
  p.alpha = 0.7;
  p.days = 20;
  p.slots_k = 2;
  Wcma wcma(p, 48);
  Ewma ewma(0.5, 48);

  const auto r_wcma = SimulateNodeKernel(wcma, series, config);
  const auto r_ewma = SimulateNodeKernel(ewma, series, config);

  const double score_wcma =
      r_wcma.violation_rate + r_wcma.overflow_j / r_wcma.harvested_j;
  const double score_ewma =
      r_ewma.violation_rate + r_ewma.overflow_j / r_ewma.harvested_j;
  EXPECT_LT(score_wcma, score_ewma);
}

TEST(NodeSim, SlotLengthMismatchIsRejected) {
  const auto series = MakeSeries("HSU", 25);
  auto config = MakeConfig();
  config.duty.slot_seconds = 900.0;  // series is 1800 s slots
  Persistence p;
  EXPECT_THROW(SimulateNodeKernel(p, series, config), std::invalid_argument);
}

TEST(NodeSim, ValidatesInitialLevel) {
  const auto series = MakeSeries("HSU", 25);
  auto config = MakeConfig();
  config.initial_level_fraction = 1.5;
  Persistence p;
  EXPECT_THROW(SimulateNodeKernel(p, series, config), std::invalid_argument);
}

TEST(NodeSim, LongRunDutyStddevMatchesTwoPassReference) {
  // Pin for the Welford duty-variance accumulator: replay the simulation
  // loop with the same public components, collect the actual duty
  // sequence, and compare the kernel's streamed stddev against the exact
  // two-pass computation.  At ~17k scored slots the old duty_sq_sum/n -
  // mean^2 form visibly drifts; Welford must track the reference to
  // near machine precision.
  const auto series = MakeSeries("ECSU", 380);
  const auto config = MakeConfig();
  Ewma predictor(0.5, 48);
  const auto result = SimulateNodeKernel(predictor, series, config);
  ASSERT_GT(result.slots, 15000u);

  Ewma replay_predictor(0.5, 48);
  replay_predictor.Reset();
  EnergyStorage store(config.storage,
                      config.initial_level_fraction *
                          config.storage.capacity_j);
  DutyCycleController controller(config.duty);
  const std::size_t warmup_slots =
      config.warmup_days * series.slots_per_day();
  std::vector<double> duties;
  for (std::size_t g = 0; g + 1 < series.size(); ++g) {
    replay_predictor.Observe(series.boundary(g));
    const double predicted_j =
        std::max(0.0, replay_predictor.PredictNext()) *
        config.duty.slot_seconds;
    const double duty = controller.DutyForSlot(
        predicted_j, store.level_j(), config.storage.capacity_j);
    store.Charge(series.mean(g) * config.duty.slot_seconds);
    store.Discharge(controller.ConsumptionJ(duty));
    store.Leak(config.duty.slot_seconds);
    if (g >= warmup_slots) duties.push_back(duty);
  }
  ASSERT_EQ(duties.size(), result.slots);

  double mean = 0.0;
  for (double d : duties) mean += d;
  mean /= static_cast<double>(duties.size());
  double m2 = 0.0;
  for (double d : duties) m2 += (d - mean) * (d - mean);
  const double two_pass_stddev =
      std::sqrt(m2 / static_cast<double>(duties.size()));

  EXPECT_GT(result.duty_stddev, 0.0);
  EXPECT_NEAR(result.duty_stddev, two_pass_stddev,
              1e-12 * std::max(1.0, two_pass_stddev));
  EXPECT_NEAR(result.mean_duty, mean, 1e-12);
}

TEST(NodeSim, TinyStorageCausesMoreViolations) {
  const auto series = MakeSeries("SPMD", 60);
  WcmaParams p;
  p.days = 10;
  auto big = MakeConfig();
  auto small = MakeConfig();
  small.storage.capacity_j = 500.0;  // under one night's minimum draw
  Wcma pa(p, 48), pb(p, 48);
  const auto r_big = SimulateNodeKernel(pa, series, big);
  const auto r_small = SimulateNodeKernel(pb, series, small);
  EXPECT_GT(r_small.violations, r_big.violations);
}

}  // namespace
}  // namespace shep

// Tests for the node-sim kernel's cost channel (mgmt/node_sim_kernel.hpp)
// through its fleet-side dispatcher (SimulateSpecNode): a backend with a
// ComputeCost() member must report its totals, and a float backend must
// report none.  Every kind's full result, cost columns included, is pinned
// by the all-kinds checksums of tests/test_fleet_golden.cpp.
#include <gtest/gtest.h>

#include "fleet/runner.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

SlotSeries MakeSeries(const char* site, std::size_t days) {
  SynthOptions opt;
  opt.days = days;
  return SlotSeries(SynthesizeTrace(SiteByCode(site), opt), 48);
}

NodeSimConfig MakeConfig() {
  NodeSimConfig c;
  c.duty.slot_seconds = 1800.0;
  c.duty.active_power_w = 0.40;
  c.storage.capacity_j = 4000.0;
  c.warmup_days = 20;
  return c;
}

PredictorSpec KindSpec(PredictorKind kind) {
  PredictorSpec spec;
  spec.kind = kind;
  spec.wcma.alpha = 0.7;
  spec.wcma.days = 10;
  spec.wcma.slots_k = 3;
  return spec;
}

// The kernel detects ComputeCost() at compile time: both MCU backends
// report every prediction of the run (warm-up included), the float
// reference reports nothing.
TEST(SimulateSpecNode, CostChannelFollowsTheBackend) {
  const auto series = MakeSeries("HSU", 35);
  const auto config = MakeConfig();
  const std::uint64_t predictions = series.size() - 1;

  for (PredictorKind kind : {PredictorKind::kWcmaFixed,
                             PredictorKind::kWcmaVm}) {
    SCOPED_TRACE(PredictorKindName(kind));
    const NodeSimResult costed =
        SimulateSpecNode(KindSpec(kind), 48, series, config);
    EXPECT_TRUE(costed.has_compute_cost);
    EXPECT_EQ(costed.compute.predictions, predictions);
    EXPECT_GT(costed.compute.cycles, 0.0);
    EXPECT_GT(costed.compute.ops, 0u);
  }

  const NodeSimResult floating =
      SimulateSpecNode(KindSpec(PredictorKind::kWcma), 48, series, config);
  EXPECT_FALSE(floating.has_compute_cost);
  EXPECT_EQ(floating.compute.predictions, 0u);
}

}  // namespace
}  // namespace shep

// Deterministic fault injection (fleet/faults.hpp): schedule expansion,
// kernel fault semantics, scenario serde of the fault block, and the
// graceful-degradation invariant — a faulted campaign must stay
// bit-identical across serial, pooled, and serialized-partial-merge
// execution, exactly like a healthy one (its own golden fixture pins the
// values), while a zero-fault spec keeps rendering the pre-fault columns.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.hpp"
#include "core/ewma.hpp"
#include "fleet/faults.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet_summary_expect.hpp"
#include "mgmt/node_sim_kernel.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

FaultSpec ChaosSpec() {
  FaultSpec faults;
  faults.outage_rate_per_day = 2.0;
  faults.outage_mean_slots = 6.0;
  faults.dropout_rate_per_day = 1.0;
  faults.dropout_mean_slots = 4.0;
  faults.panel_decay_per_day = 0.001;
  faults.battery_aging_per_day = 0.002;
  return faults;
}

// ---- FaultSchedule expansion ----------------------------------------------

TEST(FaultSchedule, SameSeedSameScheduleDifferentSeedDiffers) {
  const FaultSpec faults = ChaosSpec();
  FaultSchedule a, b, c;
  BuildFaultSchedule(faults, 0xABCD, 30, 48, a);
  BuildFaultSchedule(faults, 0xABCD, 30, 48, b);
  BuildFaultSchedule(faults, 0xABCE, 30, 48, c);

  ASSERT_EQ(a.outages.size(), b.outages.size());
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].begin, b.outages[i].begin);
    EXPECT_EQ(a.outages[i].end, b.outages[i].end);
  }
  ASSERT_EQ(a.dropouts.size(), b.dropouts.size());
  for (std::size_t i = 0; i < a.dropouts.size(); ++i) {
    EXPECT_EQ(a.dropouts[i].begin, b.dropouts[i].begin);
    EXPECT_EQ(a.dropouts[i].end, b.dropouts[i].end);
  }
  // A different fault seed must draw a different outage pattern (at two
  // expected arrivals per day over 30 days a collision is astronomically
  // unlikely).
  bool differs = a.outages.size() != c.outages.size();
  for (std::size_t i = 0; !differs && i < a.outages.size(); ++i) {
    differs = a.outages[i].begin != c.outages[i].begin ||
              a.outages[i].end != c.outages[i].end;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, WindowsAreSortedDisjointAndInHorizon) {
  FaultSchedule schedule;
  BuildFaultSchedule(ChaosSpec(), 7, 30, 48, schedule);
  const std::uint32_t total = 30u * 48u;
  EXPECT_FALSE(schedule.outages.empty());
  EXPECT_FALSE(schedule.dropouts.empty());
  for (const std::vector<FaultWindow>* windows :
       {&schedule.outages, &schedule.dropouts}) {
    std::uint32_t last_end = 0;
    for (const FaultWindow& w : *windows) {
      EXPECT_LT(w.begin, w.end);
      EXPECT_GE(w.begin, last_end);
      EXPECT_LT(w.begin, total);  // windows start inside the horizon.
      last_end = w.end;
    }
  }
}

TEST(FaultSchedule, DegradationFactorsAreRunningProducts) {
  FaultSchedule schedule;
  BuildFaultSchedule(ChaosSpec(), 7, 30, 48, schedule);
  ASSERT_EQ(schedule.panel_factor.size(), 30u);
  ASSERT_EQ(schedule.capacity_factor.size(), 30u);
  EXPECT_EQ(schedule.panel_factor[0], 1.0);
  EXPECT_EQ(schedule.capacity_factor[0], 1.0);
  for (std::size_t d = 1; d < 30; ++d) {
    EXPECT_EQ(schedule.panel_factor[d],
              schedule.panel_factor[d - 1] * (1.0 - 0.001));
    EXPECT_EQ(schedule.capacity_factor[d],
              schedule.capacity_factor[d - 1] * (1.0 - 0.002));
  }
  // Default recovery window resolves to one day.
  EXPECT_EQ(schedule.recovery_window_slots, 48u);
}

// ---- Kernel fault semantics -----------------------------------------------

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
  c.warmup_days = 2;
  return c;
}

/// A schedule with no fault mass at all: empty windows, unit factors.
FaultSchedule IdleSchedule(std::size_t days) {
  FaultSchedule schedule;
  schedule.panel_factor.assign(days, 1.0);
  schedule.capacity_factor.assign(days, 1.0);
  schedule.recovery_window_slots = 48;
  return schedule;
}

TEST(FaultKernel, EmptyScheduleReproducesHealthyRunBitForBit) {
  const SlotSeries series = MakeSeries("ORNL", 10);
  const NodeSimConfig config = MakeConfig();
  Ewma healthy_p(0.5, 48);
  const NodeSimResult healthy =
      SimulateNodeKernel(healthy_p, series, config);
  const FaultSchedule schedule = IdleSchedule(10);
  Ewma faulted_p(0.5, 48);
  const NodeSimResult faulted = SimulateNodeKernel(
      faulted_p, series, config, NoSlotProbe{}, FaultModel(schedule));

  EXPECT_TRUE(faulted.faulted);
  EXPECT_FALSE(healthy.faulted);
  EXPECT_EQ(faulted.downtime_slots, 0u);
  EXPECT_EQ(faulted.recoveries, 0u);
  EXPECT_EQ(faulted.slots, healthy.slots);
  EXPECT_EQ(faulted.violations, healthy.violations);
  EXPECT_EQ(faulted.violation_rate, healthy.violation_rate);
  EXPECT_EQ(faulted.mean_duty, healthy.mean_duty);
  EXPECT_EQ(faulted.duty_stddev, healthy.duty_stddev);
  EXPECT_EQ(faulted.overflow_j, healthy.overflow_j);
  EXPECT_EQ(faulted.delivered_j, healthy.delivered_j);
  EXPECT_EQ(faulted.harvested_j, healthy.harvested_j);
  EXPECT_EQ(faulted.min_level_fraction, healthy.min_level_fraction);
  EXPECT_EQ(faulted.mape, healthy.mape);
}

TEST(FaultKernel, OutageSuspendsScoringAndOpensRecoveryWindow) {
  const SlotSeries series = MakeSeries("ORNL", 10);
  const NodeSimConfig config = MakeConfig();
  Ewma healthy_p(0.5, 48);
  const NodeSimResult healthy =
      SimulateNodeKernel(healthy_p, series, config);

  FaultSchedule schedule = IdleSchedule(10);
  // One six-slot outage well past the two warm-up days (slot 96 onward).
  schedule.outages.push_back({120, 126});
  Ewma faulted_p(0.5, 48);
  const NodeSimResult faulted = SimulateNodeKernel(
      faulted_p, series, config, NoSlotProbe{}, FaultModel(schedule));

  EXPECT_EQ(faulted.downtime_slots, 6u);
  EXPECT_EQ(faulted.recoveries, 1u);
  EXPECT_EQ(faulted.slots, healthy.slots - 6u);
  // The recovery window (48 slots from slot 126) is fully inside the
  // scored horizon and uninterrupted, so every one of its slots counts.
  EXPECT_EQ(faulted.post_recovery_slots, 48u);
  EXPECT_LE(faulted.post_recovery_violations, faulted.post_recovery_slots);
}

TEST(FaultKernel, DropoutKeepsEverySlotScored) {
  const SlotSeries series = MakeSeries("ORNL", 10);
  const NodeSimConfig config = MakeConfig();
  Ewma healthy_p(0.5, 48);
  const NodeSimResult healthy =
      SimulateNodeKernel(healthy_p, series, config);

  FaultSchedule schedule = IdleSchedule(10);
  // Midday on day 5 (slot 24 of 48): the held observation differs from the
  // live one — a night window would hold 0 W over 0 W and prove nothing.
  schedule.dropouts.push_back({264, 268});
  Ewma faulted_p(0.5, 48);
  const NodeSimResult faulted = SimulateNodeKernel(
      faulted_p, series, config, NoSlotProbe{}, FaultModel(schedule));

  // A dropout degrades the predictor's input, never the node's uptime.
  EXPECT_EQ(faulted.slots, healthy.slots);
  EXPECT_EQ(faulted.downtime_slots, 0u);
  EXPECT_EQ(faulted.recoveries, 0u);
  // The held observation must actually have changed the prediction stream.
  EXPECT_NE(faulted.mape, healthy.mape);
}

TEST(FaultKernel, PanelDecayScalesHarvestExactly) {
  const SlotSeries series = MakeSeries("ORNL", 10);
  const NodeSimConfig config = MakeConfig();
  Ewma healthy_p(0.5, 48);
  const NodeSimResult healthy =
      SimulateNodeKernel(healthy_p, series, config);

  FaultSchedule schedule = IdleSchedule(10);
  // A power-of-two factor multiplies exactly, so the scored harvest must
  // halve bit for bit.
  schedule.panel_factor.assign(10, 0.5);
  Ewma faulted_p(0.5, 48);
  const NodeSimResult faulted = SimulateNodeKernel(
      faulted_p, series, config, NoSlotProbe{}, FaultModel(schedule));
  EXPECT_EQ(faulted.harvested_j, 0.5 * healthy.harvested_j);
}

TEST(FaultKernel, BatteryAgingShrinksUsableCapacity) {
  EnergyStorage store(StorageParams{}, /*initial_level_j=*/400.0);
  store.SetCapacity(100.0);
  EXPECT_EQ(store.params().capacity_j, 100.0);
  // Charge above the aged capacity is unusable and drops from the level —
  // capacity fade is not overflow, so the lifetime counters stay put.
  EXPECT_EQ(store.level_j(), 100.0);
  EXPECT_EQ(store.total_overflow_j(), 0.0);
  EXPECT_THROW(store.SetCapacity(0.0), std::exception);
}

// ---- Scenario serde of the fault block ------------------------------------

ScenarioSpec FaultedScenario() {
  ScenarioSpec spec;
  spec.name = "faulted_golden";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.alpha = 0.7;
  wcma.wcma.days = 10;
  wcma.wcma.slots_k = 3;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 3;
  spec.days = 30;
  spec.slots_per_day = 48;
  spec.seed = 2026;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  spec.faults.outage_rate_per_day = 0.2;
  spec.faults.outage_mean_slots = 6.0;
  spec.faults.dropout_rate_per_day = 0.5;
  spec.faults.dropout_mean_slots = 4.0;
  spec.faults.panel_decay_per_day = 0.001;
  spec.faults.battery_aging_per_day = 0.002;
  return spec;
}

TEST(FaultSpecSerde, RoundTripIsExact) {
  const ScenarioSpec spec = FaultedScenario();
  const std::string text = spec.Describe();
  const ScenarioSpec back = ParseScenarioSpec(text);
  EXPECT_EQ(back.Describe(), text);
  EXPECT_EQ(back.faults.outage_rate_per_day, spec.faults.outage_rate_per_day);
  EXPECT_EQ(back.faults.outage_mean_slots, spec.faults.outage_mean_slots);
  EXPECT_EQ(back.faults.dropout_rate_per_day,
            spec.faults.dropout_rate_per_day);
  EXPECT_EQ(back.faults.dropout_mean_slots, spec.faults.dropout_mean_slots);
  EXPECT_EQ(back.faults.panel_decay_per_day, spec.faults.panel_decay_per_day);
  EXPECT_EQ(back.faults.battery_aging_per_day,
            spec.faults.battery_aging_per_day);
  EXPECT_EQ(back.faults.recovery_window_slots,
            spec.faults.recovery_window_slots);
}

TEST(FaultSpecSerde, RejectsMalformedFaultBlocks) {
  // Negative arrival rate.
  {
    ScenarioSpec spec = FaultedScenario();
    spec.faults.outage_rate_per_day = -0.5;
    EXPECT_THROW((void)ParseScenarioSpec(spec.Describe()), std::exception);
  }
  // Positive rate with a sub-slot mean duration.
  {
    ScenarioSpec spec = FaultedScenario();
    spec.faults.outage_mean_slots = 0.0;
    EXPECT_THROW((void)ParseScenarioSpec(spec.Describe()), std::exception);
  }
  // Dropout windows longer than a day are outages, not dropouts.
  {
    ScenarioSpec spec = FaultedScenario();
    spec.faults.dropout_mean_slots = 100.0;  // slots_per_day is 48.
    EXPECT_THROW((void)ParseScenarioSpec(spec.Describe()), std::exception);
  }
  // Aging a full capacity per day (or more) leaves nothing to simulate.
  {
    ScenarioSpec spec = FaultedScenario();
    spec.faults.battery_aging_per_day = 1.0;
    EXPECT_THROW((void)ParseScenarioSpec(spec.Describe()), std::exception);
  }
  // Trailing junk after end-scenario: a truncated or concatenated wire
  // payload must not parse as a valid spec.
  {
    const std::string text = FaultedScenario().Describe() + "junk\n";
    EXPECT_THROW((void)ParseScenarioSpec(text), std::exception);
  }
  // Pre-fault (v1) spec text is rejected up front.
  {
    std::string text = FaultedScenario().Describe();
    text.replace(text.find("v2"), 2, "v1");
    EXPECT_THROW((void)ParseScenarioSpec(text), std::exception);
  }
}

TEST(FaultSpecSerde, ZeroFaultSpecStaysHealthy) {
  ScenarioSpec spec = FaultedScenario();
  spec.faults = FaultSpec{};
  EXPECT_FALSE(spec.faults.any());
  const ScenarioSpec back = ParseScenarioSpec(spec.Describe());
  EXPECT_FALSE(back.faults.any());
  // The rendered summary of a healthy run carries no fault columns (the
  // byte-exact CSV is pinned by test_fleet_golden).
  const FleetSummary summary = RunFleet(spec);
  EXPECT_EQ(summary.ToCsv().find("availability"), std::string::npos);
  for (const CellAccumulator& s : summary.stats) {
    EXPECT_FALSE(s.has_fault_stats());
  }
}

// ---- The faulted golden fixture -------------------------------------------

// Committed expectation for FaultedScenario(); regenerate like the healthy
// golden fixture (run the spec, paste ToCsv()) and justify the diff.
constexpr const char* kFaultedGoldenCsv =
    "site,predictor,storage_j,nodes,viol_mean,viol_p50,viol_p95,viol_max,mean"
    "_duty,wasted_harvest,min_soc,mape,cyc_mean,cyc_p95,ops_mean,availability"
    ",downtime_slots,recoveries,postrec_viol\n"
    "HSU,WCMA,1500,3,0.428936,0.470703,0.543933,0.543933,0.278541,0.075110,"
    "0.000000,0.178591,n/a,n/a,n/a,0.972860,39,3,0.395833\n"
    "HSU,WCMA,6000,3,0.018947,0.002930,0.056842,0.056842,0.274455,0.015082,"
    "0.055097,0.198660,n/a,n/a,n/a,0.974948,36,5,0.000000\n"
    "HSU,Persistence,1500,3,0.541488,0.583984,0.613734,0.613734,0.283604,"
    "0.077554,0.000000,0.237223,n/a,n/a,n/a,0.974948,36,6,0.701686\n"
    "HSU,Persistence,6000,3,0.017730,0.002930,0.053191,0.053191,0.265392,"
    "0.002863,0.136816,0.214656,n/a,n/a,n/a,0.970077,43,8,0.000000\n"
    "PFCI,WCMA,1500,3,0.248981,0.275391,0.340292,0.340292,0.338507,0.225804,"
    "0.000000,0.126065,n/a,n/a,n/a,0.956159,63,4,0.143056\n"
    "PFCI,WCMA,6000,3,0.000000,0.000000,0.000000,0.000000,0.375304,0.136312,"
    "0.279306,0.132440,n/a,n/a,n/a,0.951983,69,11,0.000000\n"
    "PFCI,Persistence,1500,3,0.403061,0.373047,0.467641,0.467641,0.342157,"
    "0.218805,0.000000,0.139349,n/a,n/a,n/a,0.990257,14,3,0.608252\n"
    "PFCI,Persistence,6000,3,0.000000,0.000000,0.000000,0.000000,0.360130,"
    "0.146521,0.257591,0.151272,n/a,n/a,n/a,0.999304,1,1,0.000000\n";

// (violations, scored_slots, downtime_slots, recoveries) per cell.
constexpr std::array<std::array<std::uint64_t, 4>, 8> kFaultedGoldenTotals{{
    {598u, 1398u, 39u, 3u},
    {27u, 1401u, 36u, 5u},
    {757u, 1401u, 36u, 6u},
    {25u, 1394u, 43u, 8u},
    {343u, 1374u, 63u, 4u},
    {0u, 1368u, 69u, 11u},
    {574u, 1423u, 14u, 3u},
    {0u, 1436u, 1u, 1u},
}};

TEST(FaultedGolden, SerialPooledAndPartialMergeAreBitIdentical) {
  const ScenarioSpec spec = FaultedScenario();
  // Bit-identity holds per shard size (shard boundaries fix the merge
  // grouping), so every run below shares one.
  FleetRunOptions serial_options;
  serial_options.shard_size = 4;
  const FleetSummary serial = RunFleet(spec, serial_options);

  ThreadPool pool;
  FleetRunOptions pooled_options = serial_options;
  pooled_options.pool = &pool;
  const FleetSummary pooled = RunFleet(spec, pooled_options);
  ExpectSummaryBitIdentical(pooled, serial);

  // Three partial runs, serialized across a pretend process boundary and
  // merged — the distributed path of a faulted campaign.
  const ShardPlan plan = BuildShardPlan(spec, serial_options.shard_size);
  std::vector<std::vector<std::size_t>> assignment(3);
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    assignment[i % 3].push_back(i);
  }
  std::vector<FleetPartial> partials;
  for (const std::vector<std::size_t>& shards : assignment) {
    const FleetPartial partial = RunFleetShards(plan, shards, {});
    partials.push_back(FleetPartial::Parse(partial.Serialize()));
  }
  ExpectSummaryBitIdentical(MergeFleetPartials(plan, partials), serial);
}

TEST(FaultedGolden, CsvMatchesCommittedFixture) {
  const FleetSummary summary = RunFleet(FaultedScenario());
  EXPECT_EQ(summary.ToCsv(), kFaultedGoldenCsv);
}

TEST(FaultedGolden, TotalsMatchCommittedFixture) {
  const FleetSummary summary = RunFleet(FaultedScenario());
  ASSERT_EQ(summary.stats.size(), kFaultedGoldenTotals.size());
  for (std::size_t i = 0; i < kFaultedGoldenTotals.size(); ++i) {
    EXPECT_EQ(summary.stats[i].violations, kFaultedGoldenTotals[i][0])
        << "cell " << i;
    EXPECT_EQ(summary.stats[i].scored_slots, kFaultedGoldenTotals[i][1])
        << "cell " << i;
    EXPECT_EQ(summary.stats[i].downtime_slots, kFaultedGoldenTotals[i][2])
        << "cell " << i;
    EXPECT_EQ(summary.stats[i].recoveries, kFaultedGoldenTotals[i][3])
        << "cell " << i;
  }
}

}  // namespace
}  // namespace shep

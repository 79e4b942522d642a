// Tests for the distributed fleet pipeline: shard plans, serialized
// partials, the plan-order merge, and the reusable lane store.  The
// acceptance pin lives here — a scenario executed as several separate
// RunFleetShards partial runs, each serialized to text and parsed back,
// must merge into a FleetSummary bit-identical (table + CSV + integer
// totals) to the single-process RunFleet at any thread count.
#include "fleet/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serdes.hpp"
#include "common/threadpool.hpp"
#include "fleet/partial.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet_summary_expect.hpp"
#include "solar/clearsky.hpp"

namespace shep {
namespace {

ScenarioSpec DistributedSpec() {
  ScenarioSpec spec;
  spec.name = "distributed";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 10;
  PredictorSpec fixed = wcma;  // a costed backend, so the cycle moments
  fixed.kind = PredictorKind::kWcmaFixed;  // and histograms are exercised.
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, fixed, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 3;
  spec.days = 30;
  spec.slots_per_day = 48;
  spec.seed = 77;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  return spec;
}

/// Runs each shard group as its own RunFleetShards call, pushes every
/// partial through Serialize → Parse (the process boundary), and merges.
FleetSummary RunDistributed(const ShardPlan& plan,
                            const std::vector<std::vector<std::size_t>>& groups,
                            const FleetRunOptions& options = {}) {
  std::vector<FleetPartial> partials;
  for (const auto& group : groups) {
    const FleetPartial partial = RunFleetShards(plan, group, options);
    const std::string wire = partial.Serialize();
    partials.push_back(FleetPartial::Parse(wire));
  }
  return MergeFleetPartials(plan, partials);
}

/// Round-robins the plan's shards into n groups.
std::vector<std::vector<std::size_t>> RoundRobinGroups(const ShardPlan& plan,
                                                       std::size_t n) {
  std::vector<std::vector<std::size_t>> groups(n);
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    groups[i % n].push_back(i);
  }
  return groups;
}

TEST(ShardPlan, IsDeterministicAndCoversEveryNode) {
  const ScenarioSpec spec = DistributedSpec();
  const ShardPlan a = BuildShardPlan(spec, 5);
  const ShardPlan b = BuildShardPlan(spec, 5);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].begin_node, b.shards[i].begin_node);
    EXPECT_EQ(a.shards[i].end_node, b.shards[i].end_node);
  }
  ASSERT_EQ(a.lanes.size(), b.lanes.size());
  for (std::size_t l = 0; l < a.lanes.size(); ++l) {
    EXPECT_EQ(a.lanes[l].site_code, b.lanes[l].site_code);
    EXPECT_EQ(a.lanes[l].trace_seed, b.lanes[l].trace_seed);
  }

  // Ranges tile [0, node_count) exactly.
  std::size_t next = 0;
  for (const ShardRange& range : a.shards) {
    EXPECT_EQ(range.begin_node, next);
    EXPECT_GT(range.end_node, range.begin_node);
    next = range.end_node;
  }
  EXPECT_EQ(next, a.matrix.nodes.size());

  // Lane table matches the matrix's (site, replica) keying.
  ASSERT_EQ(a.lanes.size(), a.matrix.trace_lane_count());
  for (const FleetNodeConfig& node : a.matrix.nodes) {
    const TraceLanePlan& lane = a.lanes[a.matrix.trace_lane(node)];
    EXPECT_EQ(lane.trace_seed, node.trace_seed);
    EXPECT_EQ(lane.site_code, a.matrix.cells[node.cell].site_code);
  }

  // A different shard size is a different plan identity.
  EXPECT_NE(BuildShardPlan(spec, 4).fingerprint, a.fingerprint);
  ScenarioSpec reseeded = spec;
  reseeded.seed = spec.seed + 1;
  EXPECT_NE(BuildShardPlan(reseeded, 5).fingerprint, a.fingerprint);
}

// The fingerprint must cover every result-relevant spec field — specs that
// differ only in a predictor parameter, a storage tier, or the node config
// expand to identically-shaped matrices, yet merging their partials has to
// fail loudly.  One mutation per field of the spec's text form; the base
// enables every fault channel so each fault field can move on its own.
TEST(ShardPlan, FingerprintCoversResultRelevantSpecFields) {
  ScenarioSpec base = DistributedSpec();
  base.faults.outage_rate_per_day = 0.05;
  base.faults.outage_mean_slots = 6.0;
  base.faults.dropout_rate_per_day = 0.1;
  base.faults.dropout_mean_slots = 3.0;
  base.faults.panel_decay_per_day = 0.001;
  base.faults.battery_aging_per_day = 0.002;
  base.faults.recovery_window_slots = 24;
  const std::uint64_t fp = BuildShardPlan(base, 5).fingerprint;

  const std::vector<std::pair<const char*, void (*)(ScenarioSpec&)>>
      mutations = {
          {"wcma.alpha",
           [](ScenarioSpec& s) { s.predictors[0].wcma.alpha = 0.5; }},
          {"wcma.days", [](ScenarioSpec& s) { s.predictors[0].wcma.days = 9; }},
          {"wcma.slots_k",
           [](ScenarioSpec& s) { s.predictors[0].wcma.slots_k = 2; }},
          {"kind",
           [](ScenarioSpec& s) {
             s.predictors[2].kind = PredictorKind::kPreviousDay;
           }},
          {"ewma_weight",
           [](ScenarioSpec& s) { s.predictors[0].ewma_weight = 0.3; }},
          {"ar.order", [](ScenarioSpec& s) { s.predictors[0].ar.order = 2; }},
          {"ar.days", [](ScenarioSpec& s) { s.predictors[0].ar.days = 9; }},
          {"ar.lambda",
           [](ScenarioSpec& s) { s.predictors[0].ar.lambda = 0.99; }},
          {"ar.delta",
           [](ScenarioSpec& s) { s.predictors[0].ar.delta = 50.0; }},
          {"adaptive.alphas",
           [](ScenarioSpec& s) { s.predictors[0].adaptive.alphas[0] = 0.2; }},
          {"adaptive.ks",
           [](ScenarioSpec& s) { s.predictors[0].adaptive.ks.back() = 5; }},
          {"adaptive.days",
           [](ScenarioSpec& s) { s.predictors[0].adaptive.days = 9; }},
          {"adaptive.discount",
           [](ScenarioSpec& s) { s.predictors[0].adaptive.discount = 0.9; }},
          {"storage tier",
           [](ScenarioSpec& s) { s.storage_tiers_j[0] = 2000.0; }},
          {"charge_efficiency",
           [](ScenarioSpec& s) { s.node.storage.charge_efficiency = 0.8; }},
          {"leakage_w",
           [](ScenarioSpec& s) { s.node.storage.leakage_w = 2e-5; }},
          {"active_power_w",
           [](ScenarioSpec& s) { s.node.duty.active_power_w = 0.35; }},
          {"sleep_power_w",
           [](ScenarioSpec& s) { s.node.duty.sleep_power_w = 5e-6; }},
          {"min_duty", [](ScenarioSpec& s) { s.node.duty.min_duty = 0.03; }},
          {"max_duty", [](ScenarioSpec& s) { s.node.duty.max_duty = 0.9; }},
          {"target_level_fraction",
           [](ScenarioSpec& s) { s.node.duty.target_level_fraction = 0.6; }},
          {"level_gain", [](ScenarioSpec& s) { s.node.duty.level_gain = 0.1; }},
          {"warmup_days", [](ScenarioSpec& s) { s.node.warmup_days = 21; }},
          {"initial_level_fraction",
           [](ScenarioSpec& s) { s.node.initial_level_fraction = 0.6; }},
          {"initial_level_jitter",
           [](ScenarioSpec& s) { s.initial_level_jitter = 0.1; }},
          {"outage_rate_per_day",
           [](ScenarioSpec& s) { s.faults.outage_rate_per_day = 0.06; }},
          {"outage_mean_slots",
           [](ScenarioSpec& s) { s.faults.outage_mean_slots = 7.0; }},
          {"dropout_rate_per_day",
           [](ScenarioSpec& s) { s.faults.dropout_rate_per_day = 0.2; }},
          {"dropout_mean_slots",
           [](ScenarioSpec& s) { s.faults.dropout_mean_slots = 4.0; }},
          {"panel_decay_per_day",
           [](ScenarioSpec& s) { s.faults.panel_decay_per_day = 0.002; }},
          {"battery_aging_per_day",
           [](ScenarioSpec& s) { s.faults.battery_aging_per_day = 0.003; }},
          {"recovery_window_slots",
           [](ScenarioSpec& s) { s.faults.recovery_window_slots = 12; }},
          {"days", [](ScenarioSpec& s) { s.days = 31; }},
          {"slots_per_day", [](ScenarioSpec& s) { s.slots_per_day = 24; }},
          {"nodes_per_cell", [](ScenarioSpec& s) { s.nodes_per_cell = 2; }},
          {"name", [](ScenarioSpec& s) { s.name = "distributed2"; }},
          {"sites", [](ScenarioSpec& s) { s.sites = {"PFCI", "HSU"}; }},
      };
  for (const auto& [field, mutate] : mutations) {
    ScenarioSpec changed = base;
    mutate(changed);
    EXPECT_NE(BuildShardPlan(changed, 5).fingerprint, fp) << field;
  }

  // ExpandScenario forces the slot length to 86400 / slots_per_day, so a
  // spec's own slot_seconds never reaches a result, nor the fingerprint.
  ScenarioSpec reslotted = base;
  reslotted.node.duty.slot_seconds = 900.0;
  EXPECT_EQ(BuildShardPlan(reslotted, 5).fingerprint, fp);
}

TEST(FleetPartial, SerializeParseRoundTripIsBitIdentical) {
  const ShardPlan plan = BuildShardPlan(DistributedSpec(), 5);
  std::vector<std::size_t> subset(plan.shards.size());
  std::iota(subset.begin(), subset.end(), 0);
  const FleetPartial original = RunFleetShards(plan, subset);

  const FleetPartial parsed = FleetPartial::Parse(original.Serialize());
  EXPECT_EQ(parsed.scenario_name, original.scenario_name);
  EXPECT_EQ(parsed.plan_fingerprint, original.plan_fingerprint);
  EXPECT_EQ(parsed.nodes_simulated, original.nodes_simulated);
  EXPECT_EQ(parsed.synth_seconds, original.synth_seconds);
  EXPECT_EQ(parsed.sim_seconds, original.sim_seconds);
  ASSERT_EQ(parsed.shards.size(), original.shards.size());
  for (std::size_t s = 0; s < original.shards.size(); ++s) {
    EXPECT_EQ(parsed.shards[s].shard, original.shards[s].shard);
    ASSERT_EQ(parsed.shards[s].cells.size(), original.shards[s].cells.size());
    for (std::size_t c = 0; c < original.shards[s].cells.size(); ++c) {
      EXPECT_EQ(parsed.shards[s].cells[c].first,
                original.shards[s].cells[c].first);
      ExpectCellBitIdentical(parsed.shards[s].cells[c].second,
                             original.shards[s].cells[c].second);
    }
  }

  // Serializing the parsed value reproduces the wire text exactly.
  EXPECT_EQ(parsed.Serialize(), original.Serialize());

  EXPECT_THROW(FleetPartial::Parse("garbage"), std::invalid_argument);
}

/// A partial built by hand: a literal fingerprint, two shards, and one cell
/// whose node sits at the edges of double (smallest normal duty, subnormal
/// MAPE, a NaN histogram sample, a 32-bit downtime total) next to an
/// empty cell.
FleetPartial PinnedPartial() {
  CellAccumulator edge;
  NodeSimResult result;
  result.violation_rate = 1.0;
  result.mean_duty = std::numeric_limits<double>::min();
  result.harvested_j = 3.0;
  result.overflow_j = 1.0;
  result.min_level_fraction = -0.0;
  result.mape = std::numeric_limits<double>::denorm_min();
  result.mape_points = 1;
  result.violations = 7;
  result.slots = 48;
  result.has_compute_cost = true;
  result.compute.predictions = 3;
  result.compute.cycles = 1000;
  result.compute.ops = 10;
  result.faulted = true;
  result.downtime_slots = 0xFFFFFFFFull;
  result.recoveries = 3;
  result.post_recovery_slots = 5;
  result.post_recovery_violations = 5;
  edge.Add(result);
  edge.violation_hist.Add(std::numeric_limits<double>::quiet_NaN());

  FleetPartial partial;
  partial.scenario_name = "pinned";
  partial.plan_fingerprint = 0x0123456789ABCDEFull;
  partial.nodes_simulated = 2;
  partial.synth_seconds = 0.25;
  partial.sim_seconds = 1.0 / 3.0;
  ShardCells first;
  first.shard = 3;
  first.cells.emplace_back(7, edge);
  ShardCells second;
  second.shard = 5;
  second.cells.emplace_back(8, CellAccumulator());
  partial.shards = {first, second};
  return partial;
}

/// The committed bytes of PinnedPartial().Serialize(): the frames workers
/// stream today, which any rewrite of the serializer must reproduce.
const std::string kPinnedPartialText = R"(shep-fleet-partial v3
scenario pinned
fingerprint 81985529216486895
nodes 2
synth_seconds 0x1p-2
sim_seconds 0x1.5555555555555p-2
shards 2
shard 3 cells 1
cell 7
moments 1 0x1p+0 0x0p+0 0x1p+0 0x1p+0
moments 1 0x1p-1022 0x0p+0 0x1p-1022 0x1p-1022
moments 1 0x1.5555555555555p-2 0x0p+0 0x1.5555555555555p-2 0x1.5555555555555p-2
moments 1 0x0p+0 0x0p+0 -0x0p+0 -0x0p+0
moments 1 0x0.0000000000001p-1022 0x0p+0 0x0.0000000000001p-1022 0x0.0000000000001p-1022
moments 1 0x1.4d55555555555p+8 0x0p+0 0x1.4d55555555555p+8 0x1.4d55555555555p+8
moments 1 0x1.aaaaaaaaaaaabp+1 0x0p+0 0x1.aaaaaaaaaaaabp+1 0x1.aaaaaaaaaaaabp+1
moments 1 0x1.7fffffb980001p-27 0x0p+0 0x1.7fffffb980001p-27 0x1.7fffffb980001p-27
moments 1 0x1p+0 0x0p+0 0x1p+0 0x1p+0
hist 0x0p+0 0x1p+0 256 1 1 255:1
hist 0x0p+0 0x1.388p+14 500 0 1 8:1
totals 7 48 4294967295 3
shard 5 cells 1
cell 8
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
moments 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0
hist 0x0p+0 0x1p+0 256 0 0
hist 0x0p+0 0x1.388p+14 500 0 0
totals 0 0 0 0
end
)";

TEST(FleetPartial, SerializeMatchesCommittedText) {
  EXPECT_EQ(PinnedPartial().Serialize(), kPinnedPartialText);
  EXPECT_EQ(FleetPartial::Parse(kPinnedPartialText).Serialize(),
            kPinnedPartialText);
}

// Corrupted wire bytes must be rejected, never silently reinterpreted.
TEST(FleetPartial, ParseRejectsCorruptedAggregates) {
  std::ostringstream os;
  FixedHistogram h(0.0, 1.0, 10);
  h.Add(0.35);
  h.Add(0.35);
  h.Serialize(os);
  const std::string good = os.str();

  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return FixedHistogram::Deserialize(is);
  };
  // Sanity: the untampered line round-trips.
  EXPECT_EQ(parse(good).total(), 2u);

  // A negative bin count would cast to a huge uint64 mass.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 1 3:-5"),
               std::invalid_argument);
  // A zero count is not a non-zero entry.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 1 3:0"),
               std::invalid_argument);
  // Duplicate bin indices would overwrite the bin yet double-add total.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 2 3:1 3:1"),
               std::invalid_argument);
  // Out-of-order entries are equally malformed.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 2 4:1 3:1"),
               std::invalid_argument);
  // The bin count sizes the dense bins, so a lie in it is refused before
  // any allocation.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 99999999999999 0 0"),
               std::invalid_argument);

  // Integer overflow must not clamp to ULLONG_MAX silently.
  std::istringstream overflow("99999999999999999999999");
  EXPECT_THROW(serdes::ReadU64(overflow), std::invalid_argument);

  // Double overflow must not become infinity silently (no Serialize call
  // ever emits an overflowing decimal — hexfloat round-trips exactly).
  std::istringstream double_overflow("1e999");
  EXPECT_THROW(serdes::ReadDouble(double_overflow), std::invalid_argument);
  // Subnormals still parse exactly: underflow ERANGE is not corruption.
  std::ostringstream tiny;
  serdes::WriteDouble(tiny, 5e-324);  // smallest positive denormal.
  std::istringstream tiny_in(tiny.str());
  EXPECT_EQ(serdes::ReadDouble(tiny_in), 5e-324);

  // A partial's shard and cell counts come off the wire: a count no input
  // can back is a parse error, never an allocation sized by the lie.
  const std::string head =
      "shep-fleet-partial v3\nscenario s\nfingerprint 1\nnodes 0\n"
      "synth_seconds 0x0p+0\nsim_seconds 0x0p+0\n";
  EXPECT_EQ(FleetPartial::Parse(head + "shards 0\nend\n").shards.size(), 0u);
  EXPECT_THROW(FleetPartial::Parse(head + "shards 99999999999999\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(FleetPartial::Parse(
                   head + "shards 1\nshard 0 cells 99999999999999\nend\n"),
               std::invalid_argument);
}

// The acceptance criterion: >= 3 separate partial runs, serialized and
// parsed back, merged in any grouping, at several thread counts — always
// bit-identical to the monolithic single-process RunFleet.
TEST(MergeFleetPartials, SerializedPartialRunsReproduceRunFleet) {
  const ScenarioSpec spec = DistributedSpec();
  FleetRunOptions mono_options;
  mono_options.shard_size = 5;
  const FleetSummary monolithic = RunFleet(spec, mono_options);

  const ShardPlan plan = BuildShardPlan(spec, 5);
  ASSERT_GE(plan.shards.size(), 3u);

  // Three serial partial runs over contiguous thirds.
  {
    std::vector<std::vector<std::size_t>> thirds(3);
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
      thirds[i * 3 / plan.shards.size()].push_back(i);
    }
    ExpectSummaryBitIdentical(RunDistributed(plan, thirds), monolithic);
  }

  // Interleaved grouping (shards of one partial are not contiguous), with
  // the subsets handed over in scrambled order.
  {
    auto groups = RoundRobinGroups(plan, 3);
    for (auto& group : groups) {
      std::reverse(group.begin(), group.end());
    }
    std::swap(groups[0], groups[2]);
    ExpectSummaryBitIdentical(RunDistributed(plan, groups), monolithic);
  }

  // One partial per shard (the finest grouping), executed on a pool.
  {
    ThreadPool pool(4);
    FleetRunOptions options;
    options.pool = &pool;
    std::vector<std::vector<std::size_t>> singles;
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
      singles.push_back({i});
    }
    ExpectSummaryBitIdentical(RunDistributed(plan, singles, options),
                              monolithic);
  }
}

TEST(MergeFleetPartials, RejectsForeignMissingAndDuplicateCoverage) {
  const ShardPlan plan = BuildShardPlan(DistributedSpec(), 5);
  const auto groups = RoundRobinGroups(plan, 2);
  std::vector<FleetPartial> partials;
  for (const auto& group : groups) {
    partials.push_back(RunFleetShards(plan, group));
  }

  // Happy path sanity first.
  EXPECT_EQ(MergeFleetPartials(plan, partials).node_count,
            plan.matrix.nodes.size());

  // A shard missing.
  EXPECT_THROW(MergeFleetPartials(plan, {partials[0]}),
               std::invalid_argument);

  // A shard covered twice.
  EXPECT_THROW(
      MergeFleetPartials(plan, {partials[0], partials[1], partials[0]}),
      std::invalid_argument);

  // A partial from a different plan (other seed => other fingerprint).
  ScenarioSpec reseeded = DistributedSpec();
  reseeded.seed = 123456;
  const ShardPlan foreign_plan = BuildShardPlan(reseeded, 5);
  std::vector<FleetPartial> foreign = partials;
  foreign[0].plan_fingerprint = foreign_plan.fingerprint;
  EXPECT_THROW(MergeFleetPartials(plan, foreign), std::invalid_argument);

  // Malformed subsets are rejected by RunFleetShards itself.
  EXPECT_THROW(RunFleetShards(plan, {}), std::invalid_argument);
  EXPECT_THROW(RunFleetShards(plan, {0, 0}), std::invalid_argument);
  EXPECT_THROW(RunFleetShards(plan, {plan.shards.size()}),
               std::invalid_argument);
}

TEST(RunFleet, RunStatsReportClearSkyDeltas) {
  const ScenarioSpec spec = DistributedSpec();
  ClearClearSkyMemo();

  FleetRunStats info;
  RunFleet(spec, {}, &info);
  EXPECT_EQ(info.lanes_synthesized, info.unique_traces);

  // Phase 1's synthesis goes through the process-wide clear-sky memo:
  // every (site, day-of-year) profile misses once, and the other lanes of
  // the same site hit it.  The default capacity comfortably holds a
  // 30-day, 2-site campaign, so nothing is evicted.
  EXPECT_GT(info.clearsky_misses, 0u);
  EXPECT_GT(info.clearsky_hits, 0u);
  EXPECT_EQ(info.clearsky_evictions, 0u);
}

TEST(RunFleetShards, LaneStoreSynthesizesEachLaneOnceAndChangesNoBits) {
  const ScenarioSpec spec = DistributedSpec();
  const FleetSummary reference = RunFleet(spec);

  // One shard at a time, the way a fleet worker runs them, all sharing
  // one lane store: each lane is built by the first shard that reads it.
  ThreadPool pool(4);
  FleetRunOptions options;
  options.pool = &pool;
  const ShardPlan plan = BuildShardPlan(spec, options.shard_size);
  PlanLanes lanes(plan.lanes.size());
  std::vector<FleetPartial> partials;
  std::size_t synthesized = 0;
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    FleetRunStats info;
    partials.push_back(RunFleetShards(plan, {shard}, lanes, options, &info));
    EXPECT_LE(info.lanes_synthesized, info.unique_traces);
    synthesized += info.lanes_synthesized;
  }
  EXPECT_EQ(synthesized, plan.lanes.size());
  for (const auto& lane : lanes) EXPECT_NE(lane, nullptr);
  ExpectSummaryBitIdentical(MergeFleetPartials(plan, partials), reference);

  // A warm store synthesizes nothing and still matches bit for bit.
  std::vector<std::size_t> all(plan.shards.size());
  std::iota(all.begin(), all.end(), 0);
  FleetRunStats warm_info;
  std::vector<FleetPartial> warm;
  warm.push_back(RunFleetShards(plan, all, lanes, options, &warm_info));
  EXPECT_EQ(warm_info.lanes_synthesized, 0u);
  EXPECT_EQ(warm_info.unique_traces, plan.lanes.size());
  ExpectSummaryBitIdentical(MergeFleetPartials(plan, warm), reference);

  // A store sized for another plan is refused.
  PlanLanes wrong(plan.lanes.size() + 1);
  EXPECT_THROW(RunFleetShards(plan, {0}, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace shep

// Tests for the fleet layer: scenario expansion, mergeable statistics, and
// the runner's core invariant — the aggregate summary of a given
// (ScenarioSpec, seed) is bit-identical at 1 thread and at N threads.
#include "fleet/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "common/threadpool.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/scenario.hpp"
#include "fleet_summary_expect.hpp"

namespace shep {
namespace {

ScenarioSpec SmallSpec() {
  ScenarioSpec spec;
  spec.name = "test";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 10;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 3;
  spec.days = 30;
  spec.slots_per_day = 48;
  spec.seed = 42;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  return spec;
}

TEST(ScenarioMatrix, ExpansionCounts) {
  const ScenarioSpec spec = SmallSpec();
  const ScenarioMatrix matrix = ExpandScenario(spec);
  EXPECT_EQ(matrix.cells.size(), 2u * 2u * 2u);
  EXPECT_EQ(matrix.nodes.size(), matrix.cells.size() * 3u);
  EXPECT_EQ(spec.cell_count(), matrix.cells.size());
  EXPECT_EQ(spec.node_count(), matrix.nodes.size());

  // Cells are (site, predictor, storage)-major and self-indexed.
  for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
    EXPECT_EQ(matrix.cells[i].index, i);
  }
  EXPECT_EQ(matrix.cells.front().site_code, "HSU");
  EXPECT_EQ(matrix.cells.back().site_code, "PFCI");
  EXPECT_EQ(matrix.cells.front().predictor_label, "WCMA");
  EXPECT_EQ(matrix.cells.front().storage_j, 1500.0);

  // Nodes are cell-major with per-cell replica numbering.
  for (std::size_t i = 0; i < matrix.nodes.size(); ++i) {
    EXPECT_EQ(matrix.nodes[i].index, i);
    EXPECT_EQ(matrix.nodes[i].cell, i / 3);
    EXPECT_EQ(matrix.nodes[i].replica, i % 3);
  }
}

TEST(ScenarioMatrix, SeedDerivationIsPairedAndUnique) {
  const ScenarioMatrix matrix = ExpandScenario(SmallSpec());

  // Node seeds are unique fleet-wide.
  std::set<std::uint64_t> node_seeds;
  for (const auto& node : matrix.nodes) node_seeds.insert(node.node_seed);
  EXPECT_EQ(node_seeds.size(), matrix.nodes.size());

  // Weather seeds are paired: equal across cells of the same site for the
  // same replica, distinct across sites and replicas.
  std::set<std::uint64_t> trace_seeds;
  for (const auto& node : matrix.nodes) trace_seeds.insert(node.trace_seed);
  EXPECT_EQ(trace_seeds.size(),
            matrix.spec.sites.size() * matrix.spec.nodes_per_cell);
  for (const auto& a : matrix.nodes) {
    for (const auto& b : matrix.nodes) {
      const bool same_lane =
          matrix.cells[a.cell].site_index == matrix.cells[b.cell].site_index &&
          a.replica == b.replica;
      EXPECT_EQ(a.trace_seed == b.trace_seed, same_lane);
    }
  }
}

TEST(ScenarioMatrix, SameSpecExpandsIdentically) {
  const ScenarioMatrix a = ExpandScenario(SmallSpec());
  const ScenarioMatrix b = ExpandScenario(SmallSpec());
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].trace_seed, b.nodes[i].trace_seed);
    EXPECT_EQ(a.nodes[i].node_seed, b.nodes[i].node_seed);
    EXPECT_EQ(a.nodes[i].initial_level_fraction,
              b.nodes[i].initial_level_fraction);
  }
}

TEST(ScenarioMatrix, DuplicateKindsGetDistinctLabels) {
  ScenarioSpec spec = SmallSpec();
  PredictorSpec aggressive;
  aggressive.kind = PredictorKind::kWcma;
  aggressive.wcma.alpha = 0.9;
  spec.predictors.push_back(aggressive);  // second WCMA tuning.
  const ScenarioMatrix matrix = ExpandScenario(spec);
  std::set<std::string> labels;
  for (const auto& cell : matrix.cells) {
    if (cell.site_index == 0 && cell.storage_index == 0) {
      EXPECT_TRUE(labels.insert(cell.predictor_label).second)
          << "duplicate label " << cell.predictor_label;
    }
  }
  // EVERY member of the duplicated kind is suffixed — a bare "WCMA" would
  // be ambiguous between "the first duplicate" and "a singleton design".
  EXPECT_EQ(labels.count("WCMA"), 0u);
  EXPECT_EQ(labels.count("WCMA#0"), 1u);
  EXPECT_EQ(labels.count("WCMA#2"), 1u);
  // The non-duplicated kind keeps its bare name.
  EXPECT_EQ(labels.count("Persistence"), 1u);
}

TEST(ScenarioMatrix, ValidatesSpec) {
  ScenarioSpec spec = SmallSpec();
  spec.sites = {"NOPE"};
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.storage_tiers_j = {};
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.sites = {};
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.predictors = {};
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.nodes_per_cell = 0;
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.storage_tiers_j = {1500.0, 0.0};  // every tier must be positive.
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.initial_level_jitter = -0.1;
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.initial_level_jitter = 0.6;  // > the 0.5 half-width cap.
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.days = spec.node.warmup_days;  // nothing left to score.
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.slots_per_day = 1;             // one post-warm-up slot, and the sim
  spec.days = spec.node.warmup_days + 1;  // drops the final boundary slot:
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);  // 0 scored.
  spec = SmallSpec();
  spec.slots_per_day = 47;  // does not divide the day.
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.sites = {"ECSU"};      // 300 s logger...
  spec.slots_per_day = 1440;  // ...cannot fill 60 s slots.
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.node.duty.active_power_w = -1.0;  // node config errors throw up
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);  // front, not
}  // on a pool worker (where a throw would abort the process).

TEST(ScenarioMatrix, ValidatesPredictorParameters) {
  // Malformed designs must be rejected by Validate(), not discovered by
  // Make() throwing on a pool worker mid-run.
  ScenarioSpec spec = SmallSpec();
  spec.predictors[0].wcma.alpha = 1.5;
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.predictors[0].wcma.days = 0;
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.predictors[0].wcma.slots_k = spec.slots_per_day;  // K must be < N.
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.predictors[0].kind = PredictorKind::kWcmaVm;  // same K rule, VM build.
  spec.predictors[0].wcma.slots_k = spec.slots_per_day;
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.predictors[1].kind = PredictorKind::kEwma;
  spec.predictors[1].ewma_weight = -0.2;
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.predictors[1].kind = PredictorKind::kAr;
  spec.predictors[1].ar.lambda = 0.0;
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
  spec = SmallSpec();
  spec.predictors[1].kind = PredictorKind::kAdaptiveWcma;
  spec.predictors[1].adaptive.ks = {1, spec.slots_per_day};
  EXPECT_THROW(ExpandScenario(spec), std::invalid_argument);
}

TEST(PredictorSpec, FactoryMakesEveryKind) {
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    PredictorSpec spec;
    spec.kind = kind;
    const auto predictor = spec.Make(48);
    ASSERT_NE(predictor, nullptr);
    EXPECT_FALSE(predictor->Name().empty());
    EXPECT_EQ(spec.Label(), PredictorKindName(kind));
  }
}

TEST(StreamingMoments, MatchesDirectComputation) {
  const std::vector<double> xs{0.1, 0.9, 0.4, 0.4, 0.75};
  StreamingMoments m;
  for (double x : xs) m.Add(x);
  EXPECT_EQ(m.count, xs.size());
  EXPECT_NEAR(m.mean, 0.51, 1e-12);
  EXPECT_DOUBLE_EQ(m.min, 0.1);
  EXPECT_DOUBLE_EQ(m.max, 0.9);
  double direct_var = 0.0;
  for (double x : xs) direct_var += (x - 0.51) * (x - 0.51);
  direct_var /= static_cast<double>(xs.size());
  EXPECT_NEAR(m.variance(), direct_var, 1e-12);
}

TEST(StreamingMoments, MergeIsAssociative) {
  StreamingMoments a, b, c;
  for (double x : {0.05, 0.20, 0.11}) a.Add(x);
  for (double x : {0.90, 0.33}) b.Add(x);
  for (double x : {0.61, 0.62, 0.63, 0.01}) c.Add(x);

  StreamingMoments left = a;   // (a ⊕ b) ⊕ c
  left.Merge(b);
  left.Merge(c);
  StreamingMoments bc = b;     // a ⊕ (b ⊕ c)
  bc.Merge(c);
  StreamingMoments right = a;
  right.Merge(bc);

  EXPECT_EQ(left.count, right.count);
  EXPECT_DOUBLE_EQ(left.min, right.min);
  EXPECT_DOUBLE_EQ(left.max, right.max);
  EXPECT_NEAR(left.mean, right.mean, 1e-15);
  EXPECT_NEAR(left.m2, right.m2, 1e-15);

  // Merging an empty accumulator is the identity, bit for bit.
  StreamingMoments with_empty = left;
  with_empty.Merge(StreamingMoments{});
  EXPECT_EQ(with_empty.mean, left.mean);
  EXPECT_EQ(with_empty.m2, left.m2);
  StreamingMoments from_empty;
  from_empty.Merge(left);
  EXPECT_EQ(from_empty.mean, left.mean);
  EXPECT_EQ(from_empty.m2, left.m2);
}

TEST(FixedHistogram, QuantilesAndMerge) {
  FixedHistogram h(0.0, 1.0, 100);
  for (int i = 0; i < 100; ++i) h.Add((static_cast<double>(i) + 0.5) / 100.0);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_NEAR(h.Quantile(0.50), 0.50, 0.011);
  EXPECT_NEAR(h.Quantile(0.95), 0.95, 0.011);
  EXPECT_NEAR(h.Quantile(1.0), 1.0, 0.011);

  FixedHistogram a(0.0, 1.0, 100), b(0.0, 1.0, 100), c(0.0, 1.0, 100);
  for (int i = 0; i < 40; ++i) a.Add(i / 100.0);
  for (int i = 40; i < 70; ++i) b.Add(i / 100.0);
  for (int i = 70; i < 100; ++i) c.Add(i / 100.0);
  FixedHistogram left = a;  // (a ⊕ b) ⊕ c vs a ⊕ (b ⊕ c): exactly equal,
  left.Merge(b);            // bin counts are integers.
  left.Merge(c);
  FixedHistogram bc = b;
  bc.Merge(c);
  FixedHistogram right = a;
  right.Merge(bc);
  EXPECT_EQ(left.bins(), right.bins());
  EXPECT_EQ(left.total(), right.total());

  // Out-of-range samples clamp to the edge bins instead of being dropped.
  FixedHistogram clamped(0.0, 1.0, 10);
  clamped.Add(-5.0);
  clamped.Add(7.0);
  EXPECT_EQ(clamped.total(), 2u);
  EXPECT_EQ(clamped.bins().front(), 1u);
  EXPECT_EQ(clamped.bins().back(), 1u);
}

// Regression: a NaN sample used to flow through std::clamp (unordered ⇒
// clamp is a no-op) and be cast to std::size_t — undefined behaviour.  It
// must land in the dedicated NaN tally, leaving bins and quantiles alone.
TEST(FixedHistogram, NanSamplesCountSeparately) {
  FixedHistogram h(0.0, 1.0, 10);
  h.Add(0.25);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(0.75);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.nan_count(), 1u);
  std::uint64_t binned = 0;
  for (std::uint64_t b : h.bins()) binned += b;
  EXPECT_EQ(binned, 2u);  // no bin was corrupted by the NaN.
  // Quantiles see only the real mass.
  EXPECT_GT(h.Quantile(0.5), 0.0);

  // The NaN tally merges like the bins do.
  FixedHistogram other(0.0, 1.0, 10);
  other.Add(std::numeric_limits<double>::quiet_NaN());
  other.Add(0.5);
  h.Merge(other);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.nan_count(), 2u);
}

TEST(CellAccumulator, MergeMatchesSequentialAdd) {
  NodeSimResult r1, r2, r3;
  r1.violation_rate = 0.10; r1.mean_duty = 0.50; r1.violations = 12;
  r1.slots = 120; r1.overflow_j = 5.0; r1.harvested_j = 100.0; r1.mape = 0.20;
  r2.violation_rate = 0.02; r2.mean_duty = 0.62; r2.violations = 2;
  r2.slots = 120; r2.overflow_j = 9.0; r2.harvested_j = 90.0; r2.mape = 0.10;
  r3.violation_rate = 0.30; r3.mean_duty = 0.41; r3.violations = 36;
  r3.slots = 120; r3.overflow_j = 0.0; r3.harvested_j = 110.0; r3.mape = 0.45;

  CellAccumulator sequential;
  sequential.Add(r1);
  sequential.Add(r2);
  sequential.Add(r3);

  CellAccumulator left, right_tail;
  left.Add(r1);
  right_tail.Add(r2);
  right_tail.Add(r3);
  left.Merge(right_tail);

  EXPECT_EQ(left.nodes(), sequential.nodes());
  EXPECT_EQ(left.violations, sequential.violations);
  EXPECT_EQ(left.scored_slots, sequential.scored_slots);
  EXPECT_EQ(left.violation_hist.bins(), sequential.violation_hist.bins());
  EXPECT_NEAR(left.violation_rate.mean, sequential.violation_rate.mean, 1e-15);
  EXPECT_NEAR(left.mape.mean, sequential.mape.mean, 1e-15);
  EXPECT_NEAR(left.wasted_fraction.mean, sequential.wasted_fraction.mean,
              1e-15);
  EXPECT_DOUBLE_EQ(left.violation_rate.max, sequential.violation_rate.max);
}

// The acceptance-criterion test: same spec + seed, serial vs pooled
// execution, every aggregate field bit-identical.
TEST(RunFleet, SummaryBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = SmallSpec();

  FleetRunStats serial_info;
  const FleetSummary serial = RunFleet(spec, {}, &serial_info);
  EXPECT_EQ(serial_info.threads, 1u);

  ThreadPool pool(4);
  FleetRunOptions options;
  options.pool = &pool;
  FleetRunStats pooled_info;
  const FleetSummary pooled = RunFleet(spec, options, &pooled_info);
  EXPECT_EQ(pooled_info.threads, 4u);

  ExpectSummaryBitIdentical(pooled, serial);
}

TEST(RunFleet, EveryCellIsPopulated) {
  ScenarioSpec spec = SmallSpec();
  spec.nodes_per_cell = 2;
  ThreadPool pool(2);
  FleetRunOptions options;
  options.pool = &pool;
  options.shard_size = 3;  // shards straddle cell boundaries on purpose.
  const FleetSummary summary = RunFleet(spec, options);
  ASSERT_EQ(summary.stats.size(), spec.cell_count());
  for (const auto& cell : summary.stats) {
    EXPECT_EQ(cell.nodes(), spec.nodes_per_cell);
    EXPECT_GT(cell.scored_slots, 0u);
    EXPECT_TRUE(cell.mape.valid());
  }
  // The summary renders through the report layer in both shapes.
  EXPECT_NE(summary.ToTable().find("PFCI"), std::string::npos);
  EXPECT_NE(summary.ToCsv().find("site,predictor"), std::string::npos);
}

TEST(RunFleet, PredictionQualityOrdersOperationalOutcomes) {
  // Fleet-scale restatement of the paper's premise on the hard site: the
  // WCMA cells must not suffer more brown-outs + waste than persistence.
  ScenarioSpec spec = SmallSpec();
  spec.sites = {"ORNL"};
  spec.nodes_per_cell = 4;
  spec.days = 40;
  ThreadPool pool;
  FleetRunOptions options;
  options.pool = &pool;
  const FleetSummary summary = RunFleet(spec, options);
  double wcma_score = 0.0;
  double persistence_score = 0.0;
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const double score = summary.stats[i].violation_rate.mean +
                         summary.stats[i].wasted_fraction.mean;
    if (summary.cells[i].predictor_label == "WCMA") {
      wcma_score += score;
    } else {
      persistence_score += score;
    }
  }
  EXPECT_LE(wcma_score, persistence_score);
}

}  // namespace
}  // namespace shep

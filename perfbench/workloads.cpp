// workloads.cpp — fleet_campaign, fleet_coord, paper_sweep, fleet_telemetry.
#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/threadpool.hpp"
#include "fleet/coord.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "solar/synth.hpp"

namespace perfbench {

using namespace shep;

std::size_t BenchThreads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

std::size_t TelemetryPoolThreads() {
  return std::max<std::size_t>(1, BenchThreads() - 1);
}

ScenarioSpec CampaignSpec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "perfbench_campaign";
  spec.sites = {"ORNL", "ECSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.alpha = 0.7;
  wcma.wcma.days = 10;
  wcma.wcma.slots_k = 2;
  PredictorSpec wcma_fixed = wcma;
  wcma_fixed.kind = PredictorKind::kWcmaFixed;
  PredictorSpec wcma_vm = wcma;
  wcma_vm.kind = PredictorKind::kWcmaVm;
  PredictorSpec ewma;
  ewma.kind = PredictorKind::kEwma;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, wcma_fixed, wcma_vm, ewma, persistence};
  spec.storage_tiers_j = {1200.0, 4000.0, 12000.0};
  spec.nodes_per_cell = 40;
  spec.days = 120;
  spec.slots_per_day = 48;
  spec.seed = seed;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  return spec;
}

TraceSinkOptions TelemetrySinkOptions(const ScenarioSpec& spec) {
  TraceSinkOptions options;  // empty directory: stats-only.
  options.block_on_full = true;
  const ShardPlan plan = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  std::size_t max_shard_nodes = 0;
  for (const ShardRange& range : plan.shards) {
    max_shard_nodes = std::max(max_shard_nodes, range.node_count());
  }
  options.ring_capacity = std::max<std::size_t>(
      options.ring_capacity,
      max_shard_nodes * spec.days *
              static_cast<std::size_t>(spec.slots_per_day) +
          2);
  return options;
}

namespace {

class Fnv1a {
 public:
  void Add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  void Add(const StreamingMoments& m) {
    Add(static_cast<std::uint64_t>(m.count));
    Add(m.mean);
    Add(m.m2);
    Add(m.min);
    Add(m.max);
  }
  void Add(const FixedHistogram& h) {
    for (std::uint64_t bin : h.bins()) Add(bin);
    Add(h.nan_count());
  }
  void Add(const ErrorStats& e) {
    Add(e.mape);
    Add(e.mae);
    Add(e.rmse);
    Add(e.mbe);
    Add(static_cast<std::uint64_t>(e.count));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// "what: got X, want Y" when the two counts differ, else empty.
std::string ExpectCount(const char* what, std::size_t got, std::size_t want) {
  if (got == want) return {};
  std::ostringstream os;
  os << what << ": got " << got << ", want " << want;
  return os.str();
}

/// First non-empty message of a list of checks.
std::string FirstFailure(std::initializer_list<std::string> checks) {
  for (const std::string& check : checks) {
    if (!check.empty()) return check;
  }
  return {};
}

double MeanCellMapePct(const FleetSummary& summary) {
  double total = 0.0;
  for (const CellAccumulator& cell : summary.stats) total += cell.mape.mean;
  return 100.0 * total / static_cast<double>(summary.stats.size());
}

double NodeDays(const ScenarioSpec& spec) {
  return static_cast<double>(kCampaignNodes * spec.days);
}

/// In-process RunFleet on the pool: fleet_campaign, and fleet_telemetry
/// when `telemetry` attaches a stats-only TraceSink.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, bool telemetry)
      : spec_(CampaignSpec(seed)), telemetry_(telemetry) {}

  void CreateResources() override {
    pool_ = std::make_unique<ThreadPool>(telemetry_ ? TelemetryPoolThreads()
                                                    : BenchThreads());
    if (telemetry_) {
      sink_ = std::make_unique<TraceSink>(TelemetrySinkOptions(spec_));
    }
  }

  void ReleaseResources() override {
    sink_.reset();
    pool_.reset();
  }

  RepOutput Run(SpanRecorder* spans) override {
    FleetRunOptions options;
    options.pool = pool_.get();
    options.trace_sink = sink_.get();
    FleetRunStats stats;
    FleetSummary summary;
    {
      ScopedSpan span(spans, "fleet.run_fleet");
      summary = RunFleet(spec_, options, &stats);
    }
    mape_pct_ = MeanCellMapePct(summary);
    const std::uint64_t slots_observed =
        summary.node_count * (spec_.days * spec_.slots_per_day - 1);
    return {DigestSummary(summary),
            FirstFailure({
                ExpectCount("nodes", summary.node_count, kCampaignNodes),
                ExpectCount("lanes", stats.unique_traces, kCampaignLanes),
                ExpectCount("shards", stats.shards, kCampaignShards),
                ExpectCount("trace.dropped", stats.trace_dropped, 0),
                ExpectCount("trace.events", stats.trace_events,
                            telemetry_ ? slots_observed : 0),
            })};
  }

  std::uint64_t ReferenceDigest() override {
    return DigestSummary(RunFleet(spec_));
  }

  double work_units() const override { return NodeDays(spec_); }
  const char* throughput_metric() const override { return "node_days_per_s"; }
  double mape_pct() const override { return mape_pct_; }

 private:
  ScenarioSpec spec_;
  bool telemetry_;
  double mape_pct_ = 0.0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<TraceSink> sink_;
};

/// The campaign through RunFleetCoordinated with single-threaded workers.
class CoordWorkload final : public Workload {
 public:
  explicit CoordWorkload(std::uint64_t seed) : spec_(CampaignSpec(seed)) {
    options_.worker_path = SHEP_FLEET_WORKER_PATH;
    options_.workers = BenchThreads();
    options_.worker_threads = 1;
    options_.shard_size = FleetRunOptions{}.shard_size;
  }

  void CreateResources() override {}
  void ReleaseResources() override {}

  RepOutput Run(SpanRecorder* spans) override {
    FleetCoordStats stats;
    FleetSummary summary;
    {
      ScopedSpan span(spans, "fleet.run_fleet_coordinated");
      summary = RunFleetCoordinated(spec_, options_, &stats);
    }
    mape_pct_ = MeanCellMapePct(summary);
    return {DigestSummary(summary),
            FirstFailure({
                ExpectCount("nodes", summary.node_count, kCampaignNodes),
                ExpectCount("coord.frames_accepted", stats.frames_accepted,
                            kCampaignShards),
                ExpectCount("coord.workers_spawned", stats.workers_spawned,
                            options_.workers),
                ExpectCount("coord.workers_died", stats.workers_died, 0),
                ExpectCount("coord.workers_killed", stats.workers_killed, 0),
                ExpectCount("coord.shards_reassigned",
                            stats.shards_reassigned, 0),
                ExpectCount("coord.duplicate_frames", stats.duplicate_frames,
                            0),
                ExpectCount("coord.corrupt_frames", stats.corrupt_frames, 0),
            })};
  }

  std::uint64_t ReferenceDigest() override {
    return DigestSummary(RunFleet(spec_));
  }

  double work_units() const override { return NodeDays(spec_); }
  const char* throughput_metric() const override { return "node_days_per_s"; }
  double mape_pct() const override { return mape_pct_; }

 private:
  ScenarioSpec spec_;
  FleetCoordOptions options_;
  double mape_pct_ = 0.0;
};

/// Table III: 365-day paper traces, the full (alpha, D, K) grid for every
/// representable (site, N), then BestByMape.
class PaperSweepWorkload final : public Workload {
 public:
  explicit PaperSweepWorkload(std::uint64_t seed) {
    synth_.days = 365;
    synth_.seed_offset = seed;
  }

  void CreateResources() override {
    pool_ = std::make_unique<ThreadPool>(BenchThreads());
  }
  void ReleaseResources() override { pool_.reset(); }

  RepOutput Run(SpanRecorder* spans) override {
    std::vector<PowerTrace> traces;
    {
      ScopedSpan span(spans, "solar.synthesize_paper_traces");
      traces = SynthesizePaperTraces(synth_);
    }
    const std::vector<Pair> pairs = RepresentablePairs(traces);
    const ParamGrid grid = ParamGrid::Paper();
    const RoiFilter filter = PaperFilter();
    std::vector<std::uint64_t> digests;
    std::vector<double> best;
    std::size_t configs = 0;
    for (const Pair& pair : pairs) {
      std::unique_ptr<SweepContext> context;
      {
        ScopedSpan span(spans, "sweep.context");
        context = std::make_unique<SweepContext>(*pair.trace,
                                                 pair.slots_per_day);
      }
      SweepResult result;
      {
        ScopedSpan span(spans, "sweep.grid");
        result = SweepWcma(*context, grid, filter, pool_.get());
      }
      best.push_back(result.BestByMape().mean_stats.mape);
      digests.push_back(DigestPoints(result.points));
      configs += result.points.size();
    }
    mape_pct_ = MeanPct(best);
    return {Combine(digests, best),
            ExpectCount("sweep.configs", configs, kPaperSweepConfigs)};
  }

  /// Each pair's reference is a serial SweepWcma; the pairs run side by
  /// side, so the reference costs about as much as one repetition.
  std::uint64_t ReferenceDigest() override {
    const std::vector<PowerTrace> traces = SynthesizePaperTraces(synth_);
    const std::vector<Pair> pairs = RepresentablePairs(traces);
    std::vector<std::uint64_t> digests(pairs.size());
    std::vector<double> best(pairs.size());
    ThreadPool pool(BenchThreads());
    ParallelFor(&pool, pairs.size(), [&](std::size_t i) {
      const SweepContext context(*pairs[i].trace, pairs[i].slots_per_day);
      const SweepResult result =
          SweepWcma(context, ParamGrid::Paper(), PaperFilter(), nullptr);
      best[i] = result.BestByMape().mean_stats.mape;
      digests[i] = DigestPoints(result.points);
    });
    return Combine(digests, best);
  }

  double work_units() const override {
    return static_cast<double>(kPaperSweepConfigs);
  }
  const char* throughput_metric() const override { return "configs_per_s"; }
  double mape_pct() const override { return mape_pct_; }

 private:
  struct Pair {
    const PowerTrace* trace;
    int slots_per_day;
  };

  /// Every (site, N) whose slot length is a multiple of the site's
  /// recording resolution, site-major.
  static std::vector<Pair> RepresentablePairs(
      const std::vector<PowerTrace>& traces) {
    std::vector<Pair> pairs;
    for (const PowerTrace& trace : traces) {
      for (int n : kPaperSlotCounts) {
        if ((86400 / n) % trace.resolution_s() == 0) {
          pairs.push_back({&trace, n});
        }
      }
    }
    return pairs;
  }

  /// One digest over every pair's points and best MAPE, in pair order.
  static std::uint64_t Combine(const std::vector<std::uint64_t>& digests,
                               const std::vector<double>& best) {
    Fnv1a fnv;
    for (std::size_t i = 0; i < digests.size(); ++i) {
      fnv.Add(digests[i]);
      fnv.Add(best[i]);
    }
    return fnv.value();
  }

  static double MeanPct(const std::vector<double>& fractions) {
    double sum = 0.0;
    for (double f : fractions) sum += f;
    return 100.0 * sum / static_cast<double>(fractions.size());
  }

  SynthOptions synth_;
  double mape_pct_ = 0.0;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

std::uint64_t DigestSummary(const FleetSummary& summary) {
  Fnv1a fnv;
  fnv.Add(static_cast<std::uint64_t>(summary.node_count));
  fnv.Add(static_cast<std::uint64_t>(summary.days));
  fnv.Add(static_cast<std::uint64_t>(summary.slots_per_day));
  for (const CellAccumulator& cell : summary.stats) {
    for (const StreamingMoments* m :
         {&cell.violation_rate, &cell.mean_duty, &cell.wasted_fraction,
          &cell.min_soc, &cell.mape, &cell.cycles_per_wakeup,
          &cell.ops_per_wakeup, &cell.availability,
          &cell.post_recovery_violation_rate}) {
      fnv.Add(*m);
    }
    fnv.Add(cell.violation_hist);
    fnv.Add(cell.cycles_hist);
    fnv.Add(cell.violations);
    fnv.Add(cell.scored_slots);
    fnv.Add(cell.downtime_slots);
    fnv.Add(cell.recoveries);
  }
  return fnv.value();
}

std::uint64_t DigestPoints(const std::vector<SweepPoint>& points) {
  Fnv1a fnv;
  for (const SweepPoint& p : points) {
    fnv.Add(p.alpha);
    fnv.Add(static_cast<std::uint64_t>(p.days_d));
    fnv.Add(static_cast<std::uint64_t>(p.slots_k));
    fnv.Add(p.mean_stats);
    fnv.Add(p.boundary_stats);
  }
  return fnv.value();
}

RoiFilter PaperFilter() {
  RoiFilter filter;
  filter.first_day = 20;
  filter.threshold_fraction = 0.10;
  return filter;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fleet_campaign", "fleet_coord", "paper_sweep", "fleet_telemetry"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "fleet_campaign") {
    return std::make_unique<FleetWorkload>(seed, false);
  }
  if (name == "fleet_coord") return std::make_unique<CoordWorkload>(seed);
  if (name == "paper_sweep") return std::make_unique<PaperSweepWorkload>(seed);
  if (name == "fleet_telemetry") {
    return std::make_unique<FleetWorkload>(seed, true);
  }
  return nullptr;
}

}  // namespace perfbench

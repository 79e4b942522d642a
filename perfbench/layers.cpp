// layers.cpp — per-layer stages of the traced run.
//
// Each block below calls one layer's public functions directly, in the
// order the fleet pipeline or the paper sweep would, so a layer's time is
// a span around its own call rather than a share inferred from a whole
// run.  Allocation counts come from the counting operator new and are
// taken around single-threaded calls, so they are exact.
#include "layers.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "alloc_count.hpp"
#include "common/threadpool.hpp"
#include "core/wcma.hpp"
#include "fleet/coord.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "rusage.hpp"
#include "solar/clearsky.hpp"
#include "solar/synth.hpp"
#include "stats.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace shep;

namespace {

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

/// Calls `f` under a span named `name` at least `min_calls` times and for
/// at least `min_seconds`, and returns the median call duration.
template <class F>
double MedianTimed(SpanRecorder& spans, const std::string& name, int min_calls,
                   double min_seconds, F&& f) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (int calls = 0; calls < min_calls || elapsed() < min_seconds; ++calls) {
    ScopedSpan span(&spans, name);
    f();
  }
  return Median(spans.Durations(name));
}


}  // namespace

std::vector<Metric> RunLayerSuite(std::uint64_t seed, SpanRecorder& spans) {
  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };
  const std::size_t threads = BenchThreads();
  ThreadPool pool(threads);
  const ScenarioSpec spec = CampaignSpec(seed);
  const auto days = static_cast<double>(spec.days);

  // ---- fleet: plan ---------------------------------------------------------
  ShardPlan plan;
  const double plan_s = MedianTimed(spans, "fleet.plan", 5, 0.0, [&] {
    plan = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  });
  Require(plan.shards.size() == kCampaignShards &&
              plan.lanes.size() == kCampaignLanes,
          "campaign plan has an unexpected shape");

  // ---- solar + timeseries: every campaign lane, serially -------------------
  // A cold pass fills the clear-sky memo; the timed pass then runs warm,
  // as every timed repetition of the workloads does.
  SynthScratch scratch;
  auto synthesize = [&](const TraceLanePlan& lane) {
    SynthOptions options;
    options.days = spec.days;
    options.seed_offset = lane.trace_seed;
    return SynthesizeTrace(SiteByCode(lane.site_code), options, scratch);
  };
  ClearClearSkyMemo();
  for (const TraceLanePlan& lane : plan.lanes) {
    ScopedSpan span(&spans, "solar.synthesize_cold");
    synthesize(lane);
  }
  const std::uint64_t cold_misses = GetClearSkyMemoStats().misses;
  std::unique_ptr<SlotSeries> lane0;
  for (const TraceLanePlan& lane : plan.lanes) {
    PowerTrace trace = [&] {
      ScopedSpan span(&spans, "solar.synthesize");
      return synthesize(lane);
    }();
    ScopedSpan span(&spans, "timeseries.slot_series");
    auto series = std::make_unique<SlotSeries>(trace, spec.slots_per_day);
    if (!lane0) lane0 = std::move(series);
  }
  Require(GetClearSkyMemoStats().misses == cold_misses,
          "warm synthesis missed the clear-sky memo");
  const double synth_s = spans.Total("solar.synthesize");
  add("solar.synth_s", synth_s, "s");
  add("solar.synth_lane_days_per_s",
      static_cast<double>(plan.lanes.size()) * days / synth_s, "1/s");
  add("solar.clearsky_misses", static_cast<double>(cold_misses), "count");
  add("timeseries.slot_series_s", spans.Total("timeseries.slot_series"), "s");

  // ---- mgmt / core / hw: the slot kernel per predictor kind ----------------
  NodeSimConfig config = plan.matrix.spec.node;  // slot_seconds forced.
  config.storage.capacity_j = spec.storage_tiers_j[1];
  const auto slots = static_cast<double>(lane0->size());
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kPersistence}) {
    PredictorSpec predictor = spec.predictors.front();
    predictor.kind = kind;
    const std::string name = PredictorKindName(kind);
    auto simulate = [&] {
      return SimulateSpecNode(predictor, spec.slots_per_day, *lane0, config);
    };
    const std::uint64_t before = ThreadAllocations();
    const NodeSimResult first = simulate();
    const std::uint64_t allocs = ThreadAllocations() - before;
    NodeSimResult again;
    const double node_s =
        MedianTimed(spans, "mgmt.simulate_node." + name, 5, 0.1,
                    [&] { again = simulate(); });
    Require(again.violations == first.violations &&
                again.mean_duty == first.mean_duty && again.mape == first.mape,
            "kernel result of " + name + " is not repeatable");
    add("mgmt.kernel_ns_per_slot." + name, node_s / slots * 1e9, "ns");
    add("mgmt.kernel_allocs_per_node." + name, static_cast<double>(allocs),
        "count");
  }
  for (int d : {2, 10, 20}) {
    WcmaParams params;
    params.alpha = 0.7;
    params.days = d;
    params.slots_k = 2;
    Wcma wcma(params, spec.slots_per_day);
    double checksum = 0.0;
    const std::string name = "D" + std::to_string(d);
    const double pass_s =
        MedianTimed(spans, "core.wcma_pass." + name, 5, 0.05, [&] {
          wcma.Reset();
          for (std::size_t g = 0; g < lane0->size(); ++g) {
            wcma.Observe(lane0->boundary(g));
            checksum += wcma.PredictNext();
          }
        });
    Require(std::isfinite(checksum), "WCMA produced a non-finite prediction");
    add("core.wcma_ns_per_slot." + name, pass_s / slots * 1e9, "ns");
  }

  // ---- fleet: shards, merge, partial serde ---------------------------------
  std::vector<std::size_t> all_shards(plan.shards.size());
  std::iota(all_shards.begin(), all_shards.end(), std::size_t{0});
  std::vector<FleetPartial> serial_partial(1);
  const double serial_shards_s =
      MedianTimed(spans, "fleet.shards_serial", 1, 0.0, [&] {
        serial_partial[0] = RunFleetShards(plan, all_shards);
      });
  FleetRunOptions pooled;
  pooled.pool = &pool;
  std::vector<FleetPartial> partials(1);
  const double shards_s = MedianTimed(spans, "fleet.shards", 3, 0.0, [&] {
    partials[0] = RunFleetShards(plan, all_shards, pooled);
  });
  FleetSummary merged;
  const double merge_s = MedianTimed(spans, "fleet.merge", 5, 0.0, [&] {
    merged = MergeFleetPartials(plan, partials);
  });
  const std::uint64_t reference =
      DigestSummary(MergeFleetPartials(plan, serial_partial));
  Require(DigestSummary(merged) == reference,
          "pooled shards differ from the serial shards");
  add("fleet.plan_s", plan_s, "s");
  add("fleet.shards_s", shards_s, "s");
  add("fleet.merge_s", merge_s, "s");
  add("fleet.parallel_efficiency",
      serial_shards_s / (static_cast<double>(threads) * shards_s), "ratio");

  std::string text;
  const double serialize_s =
      MedianTimed(spans, "fleet.partial_serialize", 5, 0.05,
                  [&] { text = partials[0].Serialize(); });
  FleetPartial parsed;
  const double parse_s =
      MedianTimed(spans, "fleet.partial_parse", 5, 0.05,
                  [&] { parsed = FleetPartial::Parse(text); });
  Require(parsed.Serialize() == text, "partial does not round-trip");
  const auto mb = static_cast<double>(text.size()) / 1e6;
  add("fleet.partial_bytes", static_cast<double>(text.size()), "bytes");
  add("fleet.partial_serialize_mb_per_s", mb / serialize_s, "MB/s");
  add("fleet.partial_parse_mb_per_s", mb / parse_s, "MB/s");

  // ---- fleet: coordinator --------------------------------------------------
  FleetCoordOptions coord;
  coord.worker_path = SHEP_FLEET_WORKER_PATH;
  coord.worker_threads = 1;
  coord.shard_size = FleetRunOptions{}.shard_size;
  coord.workers = 1;
  ScenarioSpec one_shard = spec;  // one node, one lane, one shard.
  one_shard.name = "perfbench_one_shard";
  one_shard.sites = {spec.sites.front()};
  one_shard.predictors = {spec.predictors.front()};
  one_shard.storage_tiers_j = {spec.storage_tiers_j.front()};
  one_shard.nodes_per_cell = 1;
  const std::uint64_t one_shard_reference = DigestSummary(RunFleet(one_shard));
  FleetSummary one_shard_result;
  const double fixed_s =
      MedianTimed(spans, "coord.one_shard_campaign", 5, 0.0, [&] {
        one_shard_result = RunFleetCoordinated(one_shard, coord);
      });
  Require(DigestSummary(one_shard_result) == one_shard_reference,
          "one-shard coordinated campaign differs from RunFleet");

  coord.workers = threads;
  FleetCoordStats coord_stats;
  const double child_before = CpuSeconds(RUSAGE_CHILDREN);
  FleetSummary coordinated;
  MedianTimed(spans, "coord.campaign", 1, 0.0, [&] {
    coordinated = RunFleetCoordinated(spec, coord, &coord_stats);
  });
  const double child_cpu_s = CpuSeconds(RUSAGE_CHILDREN) - child_before;
  Require(DigestSummary(coordinated) == reference,
          "coordinated campaign differs from the serial shards");
  const double self_before = CpuSeconds(RUSAGE_SELF);
  MedianTimed(spans, "coord.in_process_campaign", 1, 0.0,
              [&] { RunFleet(spec, pooled); });
  const double in_process_cpu_s = CpuSeconds(RUSAGE_SELF) - self_before;
  add("coord.fixed_cost_s", fixed_s, "s");
  add("coord.child_cpu_s", child_cpu_s, "s");
  add("coord.cpu_ratio", child_cpu_s / in_process_cpu_s, "ratio");
  add("coord.workers_spawned",
      static_cast<double>(coord_stats.workers_spawned), "count");
  add("coord.frames_accepted",
      static_cast<double>(coord_stats.frames_accepted), "count");
  add("coord.duplicate_frames",
      static_cast<double>(coord_stats.duplicate_frames), "count");
  add("coord.shards_reassigned",
      static_cast<double>(coord_stats.shards_reassigned), "count");

  // ---- sweep: context, D series, Q series, scoring, whole grid -------------
  SynthOptions paper;
  paper.days = 365;
  paper.seed_offset = seed;
  const std::vector<PowerTrace> traces = SynthesizePaperTraces(paper);
  const PowerTrace* ornl = nullptr;
  for (const PowerTrace& trace : traces) {
    if (trace.name() == "ORNL") ornl = &trace;
  }
  Require(ornl != nullptr, "paper traces have no ORNL site");
  std::unique_ptr<SweepContext> context;
  const double context_s = MedianTimed(spans, "sweep.context", 3, 0.0, [&] {
    context = std::make_unique<SweepContext>(*ornl, 48);
  });
  const ParamGrid grid = ParamGrid::Paper();
  const RoiFilter filter = PaperFilter();
  std::vector<SweepPoint> staged;
  for (int d : grid.days) {
    SweepContext::DSeries d_series = [&] {
      ScopedSpan span(&spans, "sweep.build_d");
      return context->BuildD(d);
    }();
    for (int k : grid.ks) {
      std::vector<double> q = [&] {
        ScopedSpan span(&spans, "sweep.build_q");
        return context->BuildQ(d_series, k);
      }();
      ScopedSpan span(&spans, "sweep.score");
      for (double alpha : grid.alphas) {
        const SweepContext::ConfigScore score =
            context->Score(q, alpha, filter);
        staged.push_back({alpha, d, k, score.mean, score.boundary});
      }
    }
  }
  SweepResult pooled_sweep;
  const double grid_s = MedianTimed(spans, "sweep.grid", 3, 0.0, [&] {
    pooled_sweep = SweepWcma(*context, grid, filter, &pool);
  });
  const std::uint64_t sweep_before = ThreadAllocations();
  const SweepResult serial_sweep = SweepWcma(*context, grid, filter, nullptr);
  const std::uint64_t sweep_allocs = ThreadAllocations() - sweep_before;
  const std::uint64_t serial_points = DigestPoints(serial_sweep.points);
  Require(DigestPoints(pooled_sweep.points) == serial_points &&
              DigestPoints(staged) == serial_points,
          "pooled or staged sweep differs from the serial SweepWcma");
  const auto configs = static_cast<double>(grid.size());
  add("sweep.context_s", context_s, "s");
  add("sweep.build_d_s", spans.Total("sweep.build_d"), "s");
  add("sweep.build_q_s", spans.Total("sweep.build_q"), "s");
  add("sweep.score_ns_per_point",
      spans.Total("sweep.score") /
          (configs * static_cast<double>(context->points())) * 1e9,
      "ns");
  add("sweep.grid_s", grid_s, "s");
  add("sweep.allocs_per_config",
      static_cast<double>(sweep_allocs) / configs, "count");

  // ---- trace: the campaign with and without a stats-only sink --------------
  // Pool sizes as in the fleet_campaign and fleet_telemetry workloads.
  ThreadPool telemetry_pool(TelemetryPoolThreads());
  TraceSink sink(TelemetrySinkOptions(spec));
  FleetRunOptions traced;
  traced.pool = &telemetry_pool;
  traced.trace_sink = &sink;
  FleetRunStats trace_stats;
  for (int i = 0; i < 3; ++i) {
    MedianTimed(spans, "trace.campaign_untraced", 1, 0.0,
                [&] { RunFleet(spec, pooled); });
    FleetSummary with_sink;
    MedianTimed(spans, "trace.campaign_traced", 1, 0.0, [&] {
      with_sink = RunFleet(spec, traced, &trace_stats);
    });
    Require(DigestSummary(with_sink) == reference,
            "traced campaign differs from the untraced one");
    Require(trace_stats.trace_dropped == 0, "trace sink dropped events");
  }
  const double attempted = static_cast<double>(trace_stats.trace_events +
                                               trace_stats.trace_dropped);
  add("trace.events", static_cast<double>(trace_stats.trace_events), "count");
  add("trace.slot_records",
      static_cast<double>(trace_stats.trace_slot_records), "count");
  add("trace.day_records", static_cast<double>(trace_stats.trace_day_records),
      "count");
  add("trace.kept_slot_frac",
      static_cast<double>(trace_stats.trace_slot_records) / attempted,
      "ratio");
  add("trace.dropped", static_cast<double>(trace_stats.trace_dropped), "count");
  add("trace.overhead_pct",
      100.0 * (Median(spans.Durations("trace.campaign_traced")) /
                   Median(spans.Durations("trace.campaign_untraced")) -
               1.0),
      "%");
  return out;
}

}  // namespace perfbench

// Streaming telemetry end-to-end: the sink's two load-bearing promises.
//
// 1. OBSERVATIONAL ONLY — a fleet run with tracing on produces a summary
//    BYTE-identical to the same run with tracing off (serial and pooled,
//    even when the ring overflows and drops events).  Telemetry that can
//    change results is not telemetry.
// 2. EXACT ACCOUNTING — every slot the probes observe is either drained
//    (events) or counted as dropped, per shard and per run; trace files
//    are deterministic (serial == pooled, byte for byte) and a query over
//    the joined per-shard files equals the same query per shard,
//    concatenated — the distributed-merge property, restated for traces.
//
// Plus unit coverage of the selective-persistence policy's three triggers.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/runner.hpp"
#include "trace/policy.hpp"
#include "trace/query.hpp"
#include "trace/sink.hpp"

namespace shep {
namespace {

// Small but real: 2 sites × 2 predictors × 2 tiers × 2 replicas, with the
// tight tier provoking violations (trigger windows) and the roomy tier
// staying quiet (day summaries).
ScenarioSpec TracedSpec() {
  ScenarioSpec spec;
  spec.name = "traced";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 4;
  PredictorSpec ewma;
  ewma.kind = PredictorKind::kEwma;
  spec.predictors = {wcma, ewma};
  spec.storage_tiers_j = {400.0, 6000.0};
  spec.nodes_per_cell = 2;
  spec.days = 6;
  spec.slots_per_day = 48;
  spec.seed = 909;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 2;
  spec.initial_level_jitter = 0.2;
  return spec;
}

/// Byte-exact fingerprint of a summary: every accumulator's hexfloat
/// serialization plus the rendered CSV.  EXPECT_EQ on this is the
/// "tracing cannot change results" pin.
std::string SummaryBytes(const FleetSummary& summary) {
  std::ostringstream os;
  for (const CellAccumulator& acc : summary.stats) acc.Serialize(os);
  os << summary.ToCsv();
  return os.str();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string UniqueDir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("shep_trace_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::vector<std::string> TraceFilePaths(const ShardPlan& plan,
                                        const std::string& dir) {
  std::vector<std::string> paths;
  for (const ShardRange& shard : plan.shards) {
    paths.push_back(
        (std::filesystem::path(dir) /
         TraceShardFile::FileName(plan.fingerprint, shard.index))
            .string());
  }
  return paths;
}

TraceEvent SlotEvent(std::uint32_t slot, double soc, double predicted_w,
                     double actual_w, bool violated = false,
                     double duty = 0.25) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kSlot;
  e.slot = slot;
  e.node = 11;
  e.cell = 2;
  e.soc = soc;
  e.predicted_w = predicted_w;
  e.actual_w = actual_w;
  e.violated = violated;
  e.duty = duty;
  return e;
}

// ---------------------------------------------------------------------------
// Policy units.
// ---------------------------------------------------------------------------

TEST(TracePolicy, SocLowWaterCrossingKeepsAWindow) {
  TracePolicyConfig config;
  config.window_slots = 2;
  config.soc_low_water = 0.15;
  std::vector<TraceEvent> events;
  for (std::uint32_t g = 0; g < 12; ++g) {
    // Dips below the low-water mark at slot 6 only.
    events.push_back(SlotEvent(g, g == 6 ? 0.10 : 0.5, 1.0, 1.0));
  }
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 6, config, records, days);

  ASSERT_EQ(records.size(), 5u);  // slots 4..8.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].slot, 4 + i);
    EXPECT_EQ(records[i].trigger_mask, kTraceTriggerSocLowWater);
  }
  // The other 7 slots summarize into both days without gaps.
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].day, 0u);
  EXPECT_EQ(days[0].slots, 4u);  // slots 0..3.
  EXPECT_EQ(days[1].day, 1u);
  EXPECT_EQ(days[1].slots, 3u);  // slots 9..11.
  EXPECT_EQ(days[0].slots + days[1].slots + records.size(), events.size());
}

TEST(TracePolicy, DivergenceSpikeTriggersButNightDoesNot) {
  TracePolicyConfig config;
  config.window_slots = 1;
  config.divergence_mape = 0.75;
  std::vector<TraceEvent> events;
  for (std::uint32_t g = 0; g < 10; ++g) {
    double predicted = 1.0, actual = 1.0;
    if (g == 4) predicted = 3.0;          // 200 % error in daylight: spike.
    if (g == 8) { predicted = 5.0; actual = 0.0; }  // night: no reference.
    events.push_back(SlotEvent(g, 0.5, predicted, actual));
  }
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 10, config, records, days);

  ASSERT_EQ(records.size(), 3u);  // slots 3..5 only; slot 8 stayed coarse.
  for (const TraceRecord& r : records) {
    EXPECT_EQ(r.trigger_mask, kTraceTriggerDivergence);
    EXPECT_GE(r.slot, 3u);
    EXPECT_LE(r.slot, 5u);
  }
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].slots, 7u);
  // The night slot's 5 W miss is still visible in the coarse record.
  EXPECT_EQ(days[0].max_abs_error_w, 5.0);
}

TEST(TracePolicy, ViolationBurstTriggersOnPileUpOnly) {
  TracePolicyConfig config;
  config.window_slots = 1;
  config.burst_violations = 3;
  config.burst_window_slots = 4;
  std::vector<TraceEvent> events;
  for (std::uint32_t g = 0; g < 20; ++g) {
    // One isolated violation at 2; a 3-violation pile-up at 10..12.
    const bool violated = g == 2 || g == 10 || g == 11 || g == 12;
    events.push_back(SlotEvent(g, 0.5, 1.0, 1.0, violated));
  }
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 20, config, records, days);

  // The trailing count reaches 3 at slot 12 and holds through 13; those
  // two trigger slots ± 1 make the persisted window exactly 11..14.
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].slot, 11 + i);
    EXPECT_EQ(records[i].trigger_mask, kTraceTriggerViolationBurst);
  }
  // The isolated violations (slot 2, and slot 10 just outside the window)
  // were NOT kept at full resolution but are counted in the day summary.
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].violations, 2u);
  EXPECT_EQ(days[0].slots + records.size(), events.size());
}

TEST(TracePolicy, DaySummaryAggregatesExactly) {
  TracePolicyConfig config;  // defaults: nothing triggers in calm data.
  std::vector<TraceEvent> events;
  events.push_back(SlotEvent(0, 0.9, 1.0, 1.2, false, 0.2));
  events.push_back(SlotEvent(1, 0.8, 1.0, 1.5, true, 0.4));
  events.push_back(SlotEvent(2, 0.7, 1.0, 1.0, false, 0.6));
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 48, config, records, days);
  EXPECT_TRUE(records.empty());
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].node, 11u);
  EXPECT_EQ(days[0].cell, 2u);
  EXPECT_EQ(days[0].slots, 3u);
  EXPECT_EQ(days[0].violations, 1u);
  EXPECT_DOUBLE_EQ(days[0].min_soc, 0.7);
  EXPECT_DOUBLE_EQ(days[0].mean_duty, 0.4);
  EXPECT_DOUBLE_EQ(days[0].max_abs_error_w, 0.5);
}

// ---------------------------------------------------------------------------
// Fleet integration.
// ---------------------------------------------------------------------------

TEST(TraceSinkFleet, SummaryByteIdenticalWithTracingOnAndOff) {
  const ScenarioSpec spec = TracedSpec();
  const std::string untraced = SummaryBytes(RunFleet(spec));

  // Serial traced run.
  {
    TraceSinkOptions options;
    options.directory = UniqueDir("identity_serial");
    TraceSink sink(options);
    FleetRunOptions run;
    run.trace_sink = &sink;
    EXPECT_EQ(SummaryBytes(RunFleet(spec, run)), untraced);
  }
  // Pooled traced run.
  {
    ThreadPool pool(4);
    TraceSinkOptions options;
    options.directory = UniqueDir("identity_pool");
    TraceSink sink(options);
    FleetRunOptions run;
    run.pool = &pool;
    run.trace_sink = &sink;
    EXPECT_EQ(SummaryBytes(RunFleet(spec, run)), untraced);
  }
}

TEST(TraceSinkFleet, EveryObservedSlotIsDrainedOrCountedDropped) {
  const ScenarioSpec spec = TracedSpec();
  TraceSinkOptions options;
  options.directory = UniqueDir("accounting");
  TraceSink sink(options);
  FleetRunOptions run;
  run.trace_sink = &sink;
  FleetRunStats stats;
  RunFleet(spec, run, &stats);

  // The kernel simulates series.size() - 1 = days × slots_per_day − 1
  // slots per node, warm-up included, and offers every one to the probe.
  const std::uint64_t slots_per_node =
      static_cast<std::uint64_t>(spec.days) * spec.slots_per_day - 1;
  const std::uint64_t expected = spec.node_count() * slots_per_node;
  EXPECT_EQ(stats.trace_events + stats.trace_dropped, expected);
  EXPECT_EQ(stats.trace_shard_files,
            BuildShardPlan(spec, run.shard_size).shards.size());

  // Persistence is complete: every drained slot is either a
  // full-resolution record or summarized in exactly one day record.
  const ShardPlan plan = BuildShardPlan(spec, run.shard_size);
  const auto files = LoadTraceFiles(TraceFilePaths(plan, options.directory));
  std::uint64_t slot_records = 0, summarized = 0, dropped = 0;
  for (const TraceShardFile& file : files) {
    slot_records += file.records.size();
    dropped += file.dropped_events;
    for (const TraceDayRecord& day : file.day_records) summarized += day.slots;
  }
  EXPECT_EQ(slot_records, stats.trace_slot_records);
  EXPECT_EQ(dropped, stats.trace_dropped);
  EXPECT_EQ(slot_records + summarized, stats.trace_events);
}

TEST(TraceSinkFleet, TraceFilesAreSchedulingInvariant) {
  const ScenarioSpec spec = TracedSpec();
  TraceSinkOptions serial_options;
  serial_options.directory = UniqueDir("sched_serial");
  TraceSinkOptions pooled_options;
  pooled_options.directory = UniqueDir("sched_pool");

  FleetRunStats serial_stats;
  {
    TraceSink sink(serial_options);
    FleetRunOptions run;
    run.trace_sink = &sink;
    RunFleet(spec, run, &serial_stats);
  }
  FleetRunStats pooled_stats;
  ThreadPool pool(4);
  {
    TraceSink sink(pooled_options);
    FleetRunOptions run;
    run.pool = &pool;
    run.trace_sink = &sink;
    RunFleet(spec, run, &pooled_stats);
  }
  // The default ring (16 Ki events) never fills on this scenario, so the
  // byte-compare below is a determinism claim, not luck.
  ASSERT_EQ(serial_stats.trace_dropped, 0u);
  ASSERT_EQ(pooled_stats.trace_dropped, 0u);

  const ShardPlan plan = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  const auto serial_paths = TraceFilePaths(plan, serial_options.directory);
  const auto pooled_paths = TraceFilePaths(plan, pooled_options.directory);
  for (std::size_t i = 0; i < serial_paths.size(); ++i) {
    EXPECT_EQ(FileBytes(serial_paths[i]), FileBytes(pooled_paths[i]))
        << "shard " << i;
  }
}

TEST(TraceSinkFleet, OverflowingRingDropsLoudlyAndChangesNothing) {
  const ScenarioSpec spec = TracedSpec();
  const std::string untraced = SummaryBytes(RunFleet(spec));

  TraceSinkOptions options;
  options.directory = UniqueDir("overflow");
  options.ring_capacity = 16;  // absurdly small: guaranteed overflow.
  // A sleepy drain makes the overflow deterministic-ish; correctness must
  // not depend on how MUCH is dropped, only that it is accounted.
  options.drain_idle_micros = 2000;
  TraceSink sink(options);
  FleetRunOptions run;
  run.trace_sink = &sink;
  FleetRunStats stats;
  const FleetSummary summary = RunFleet(spec, run, &stats);

  EXPECT_GT(stats.trace_dropped, 0u);  // the ring did overflow...
  EXPECT_EQ(SummaryBytes(summary), untraced);  // ...and nothing changed.
  const std::uint64_t slots_per_node =
      static_cast<std::uint64_t>(spec.days) * spec.slots_per_day - 1;
  EXPECT_EQ(stats.trace_events + stats.trace_dropped,
            spec.node_count() * slots_per_node);

  // The loss is persisted per shard, not just reported in-process.
  const ShardPlan plan = BuildShardPlan(spec, run.shard_size);
  const auto files = LoadTraceFiles(TraceFilePaths(plan, options.directory));
  std::uint64_t dropped = 0;
  for (const TraceShardFile& file : files) dropped += file.dropped_events;
  EXPECT_EQ(dropped, stats.trace_dropped);
}

TEST(TraceSinkFleet, BlockOnFullTradesDropsForBackpressure) {
  // Same starved configuration as the overflow test — a 16-slot ring and a
  // sleepy drain — but with backpressure on: the probes wait for the drain
  // instead of dropping, so the event stream is complete and the summary
  // still matches the untraced bytes (the mode perfbench's fleet_telemetry
  // workload prices).
  const ScenarioSpec spec = TracedSpec();
  const std::string untraced = SummaryBytes(RunFleet(spec));

  TraceSinkOptions options;
  options.ring_capacity = 16;
  options.drain_idle_micros = 2000;
  options.block_on_full = true;
  TraceSink sink(options);
  FleetRunOptions run;
  run.trace_sink = &sink;
  FleetRunStats stats;
  const FleetSummary summary = RunFleet(spec, run, &stats);

  EXPECT_EQ(stats.trace_dropped, 0u);
  EXPECT_EQ(SummaryBytes(summary), untraced);
  const std::uint64_t slots_per_node =
      static_cast<std::uint64_t>(spec.days) * spec.slots_per_day - 1;
  EXPECT_EQ(stats.trace_events, spec.node_count() * slots_per_node);
}

// Regression: EndShard used to spin forever whenever no drain thread
// would ever make room — a sink whose drain never started (no BeginRun)
// or was already stopping left the caller retrying a full ring for good.
// A coordinated worker torn down mid-shard hit exactly this and hung
// instead of exiting.  The marker's drops must still be accounted, and
// the shard recorded as lost rather than silently missing its file.
TEST(TraceSinkFleet, EndShardGivesUpWhenTheDrainWillNeverRun) {
  TraceSinkOptions options;
  options.ring_capacity = 4;
  TraceSink sink(options);  // no BeginRun: the drain thread never starts.
  sink.EnsureWorkers(1);

  TraceEvent filler;  // jam the ring so the marker cannot land.
  while (sink.ring(0).TryPush(filler)) {
  }

  sink.EndShard(0, /*shard=*/3, /*dropped=*/7);  // pre-fix: infinite spin.

  const TraceSinkStats stats = sink.stats();
  EXPECT_EQ(stats.lost_shards, 1u);
  EXPECT_EQ(stats.dropped, 7u);
  EXPECT_EQ(stats.shard_files, 0u);
}

TEST(TraceSinkFleet, DistributedPartialsQueryIdenticallyPerShardAndJoined) {
  const ScenarioSpec spec = TracedSpec();
  const ShardPlan plan = BuildShardPlan(spec, 3);

  // Three "workers" each run a slice of the plan against one shared sink
  // directory — the deployment shape where every process writes its own
  // shard files and an operator joins them afterwards.
  TraceSinkOptions options;
  options.directory = UniqueDir("distributed");
  TraceSink sink(options);
  FleetRunOptions run;
  run.trace_sink = &sink;

  std::vector<std::size_t> all(plan.shards.size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<FleetPartial> partials;
  for (std::size_t worker = 0; worker < 3; ++worker) {
    std::vector<std::size_t> subset;
    for (std::size_t s = worker; s < all.size(); s += 3) subset.push_back(s);
    partials.push_back(
        FleetPartial::Parse(RunFleetShards(plan, subset, run).Serialize()));
  }
  // The traced partials still merge to the untraced monolithic summary.
  const FleetSummary merged = MergeFleetPartials(plan, partials);
  FleetRunOptions untraced;
  untraced.shard_size = 3;
  EXPECT_EQ(SummaryBytes(merged), SummaryBytes(RunFleet(spec, untraced)));

  // Every shard of the plan produced a parseable file with the plan's
  // fingerprint.
  const auto paths = TraceFilePaths(plan, options.directory);
  const auto files = LoadTraceFiles(paths);
  ASSERT_EQ(files.size(), plan.shards.size());
  for (const TraceShardFile& file : files) {
    EXPECT_EQ(file.fingerprint, plan.fingerprint);
  }

  // Per-shard versus joined: same query, same rows, whether each file is
  // queried alone (results concatenated in shard order) or all at once.
  TraceQuery query;  // everything.
  TraceQuery filtered;
  filtered.site = "HSU";
  filtered.trigger_mask = kTraceTriggerViolationBurst | kTraceTriggerSocLowWater;
  for (const TraceQuery& q : {query, filtered}) {
    const TraceQueryResult joined = RunTraceQuery(files, q);
    TraceQueryResult concatenated;
    for (const TraceShardFile& file : files) {
      const TraceQueryResult one = RunTraceQuery({file}, q);
      concatenated.slots.insert(concatenated.slots.end(), one.slots.begin(),
                                one.slots.end());
      concatenated.days.insert(concatenated.days.end(), one.days.begin(),
                               one.days.end());
    }
    EXPECT_EQ(TraceSlotsTable(joined).ToCsv(),
              TraceSlotsTable(concatenated).ToCsv());
    EXPECT_EQ(TraceDaysTable(joined).ToCsv(),
              TraceDaysTable(concatenated).ToCsv());
  }
  // The unfiltered query saw actual telemetry, not empty tables.
  EXPECT_FALSE(RunTraceQuery(files, query).days.empty());
}

TEST(TraceSinkFleet, RejectsJoiningForeignRuns) {
  const ScenarioSpec spec = TracedSpec();
  ScenarioSpec other = spec;
  other.seed = 910;  // different plan fingerprint.
  const std::string dir_a = UniqueDir("foreign_a");
  const std::string dir_b = UniqueDir("foreign_b");
  auto run_traced = [](const ScenarioSpec& s, const std::string& dir) {
    TraceSinkOptions options;
    options.directory = dir;
    TraceSink sink(options);
    FleetRunOptions run;
    run.trace_sink = &sink;
    RunFleet(s, run);
  };
  run_traced(spec, dir_a);
  run_traced(other, dir_b);
  const ShardPlan plan_a = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  const ShardPlan plan_b = BuildShardPlan(other, FleetRunOptions{}.shard_size);
  std::vector<std::string> mixed = {
      TraceFilePaths(plan_a, dir_a).front(),
      TraceFilePaths(plan_b, dir_b).front(),
  };
  EXPECT_THROW(LoadTraceFiles(mixed), std::exception);
}

}  // namespace
}  // namespace shep

// Tests for the multi-process fleet coordinator (fleet/coord.hpp): the
// wire protocol (job + frame serde), the ScenarioSpec text form that
// carries campaigns across the process boundary, and — against the real
// shep_fleet_worker binary — the acceptance pins: 2- and 4-worker
// campaigns merge bit-identical to single-process RunFleet, and stay so
// when workers are SIGKILLed, die mid-campaign, stream corrupt frames, or
// hang while heartbeating (every fault path ends in reassignment).  The
// lane-grouped dispatch is pinned by an exact ledger: the lanes workers
// report synthesizing must equal what the coordinator's own dispatch log
// says it handed out.
#include "fleet/coord.hpp"

#include <gtest/gtest.h>

#include <signal.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet_summary_expect.hpp"
#include "trace/sink.hpp"
#include "trace/trace_file.hpp"

namespace shep {
namespace {

/// Small but structurally rich: 2 sites x 3 predictors (one costed
/// backend) x 2 tiers x 2 replicas = 24 nodes -> 8 shards of 3, so a
/// 4-worker run has real dispatch traffic and faults leave work to
/// reassign.
ScenarioSpec CoordSpec() {
  ScenarioSpec spec;
  spec.name = "coordinated";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 8;
  PredictorSpec fixed = wcma;
  fixed.kind = PredictorKind::kWcmaFixed;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, fixed, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 2;
  spec.days = 20;
  spec.slots_per_day = 48;
  spec.seed = 91;
  spec.node.warmup_days = 10;
  spec.initial_level_jitter = 0.15;
  return spec;
}

constexpr std::size_t kShardSize = 3;

/// CoordSpec with 12 replicas per cell: every shard reads one replica
/// block of one site, so the plan has 2 sites x 4 blocks = 8 lane groups
/// of 6 shards each, reading disjoint 3-lane sets.
ScenarioSpec GroupedSpec() {
  ScenarioSpec spec = CoordSpec();
  spec.name = "grouped";
  spec.nodes_per_cell = 12;
  return spec;
}

/// One site and one replica block: 6 shards that all read the same 3
/// lanes, i.e. a single lane group.
ScenarioSpec SingleGroupSpec() {
  ScenarioSpec spec = CoordSpec();
  spec.name = "single_group";
  spec.sites = {"HSU"};
  spec.nodes_per_cell = 3;
  return spec;
}

FleetSummary RunMonolithic(const ScenarioSpec& spec) {
  FleetRunOptions options;
  options.shard_size = kShardSize;
  return RunFleet(spec, options);
}

const FleetSummary& Monolithic() {
  static const FleetSummary summary = RunMonolithic(CoordSpec());
  return summary;
}

FleetCoordOptions BaseOptions() {
  FleetCoordOptions options;
#ifdef SHEP_FLEET_WORKER_PATH
  options.worker_path = SHEP_FLEET_WORKER_PATH;
#endif
  options.workers = 4;
  options.shard_size = kShardSize;
  options.heartbeat_ms = 25;
  options.liveness_timeout_ms = 5000;
  return options;
}

#ifndef SHEP_FLEET_WORKER_PATH
#define SHEP_SKIP_WITHOUT_WORKER() \
  GTEST_SKIP() << "built without SHEP_FLEET_WORKER_PATH"
#else
#define SHEP_SKIP_WITHOUT_WORKER() (void)0
#endif

// ---- ScenarioSpec serde --------------------------------------------------

/// A spec using every predictor kind and every parameter block, so the
/// round trip covers the whole wire format.
ScenarioSpec EverythingSpec() {
  ScenarioSpec spec = CoordSpec();
  spec.predictors.clear();
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    PredictorSpec p;
    p.kind = kind;
    p.wcma.alpha = 0.7;
    p.wcma.days = 6;
    p.ewma_weight = 0.37;
    p.ar.order = 3;
    p.ar.days = 9;
    p.ar.lambda = 0.93;
    p.ar.delta = 123.5;
    p.adaptive.alphas = {0.25, 0.5, 0.9};
    p.adaptive.ks = {1, 2, 4};
    p.adaptive.days = 7;
    p.adaptive.discount = 0.8;
    spec.predictors.push_back(p);
  }
  spec.node.storage.charge_efficiency = 0.87;
  spec.node.initial_level_fraction = 0.42;
  return spec;
}

TEST(ScenarioSpecSerde, RoundTripIsExactAndPreservesThePlan) {
  const ScenarioSpec spec = EverythingSpec();
  const std::string text = spec.Describe();
  const ScenarioSpec parsed = ParseScenarioSpec(text);

  // The text form is a fixed point: re-describing reproduces every byte.
  EXPECT_EQ(parsed.Describe(), text);

  // The decisive equality: the rebuilt spec expands to the identical plan
  // (the fingerprint folds in every result-relevant field).
  EXPECT_EQ(BuildShardPlan(parsed, kShardSize).fingerprint,
            BuildShardPlan(spec, kShardSize).fingerprint);
}

TEST(ScenarioSpecSerde, RejectsMalformedText) {
  EXPECT_THROW(ParseScenarioSpec(""), std::invalid_argument);
  EXPECT_THROW(ParseScenarioSpec("not a scenario"), std::invalid_argument);
  std::string text = CoordSpec().Describe();
  EXPECT_THROW(ParseScenarioSpec(text.substr(0, text.size() / 2)),
               std::invalid_argument);
  // An unknown predictor kind name must not default to anything.
  std::string renamed = text;
  renamed.replace(renamed.find("WCMA"), 4, "WCMB");
  EXPECT_THROW(ParseScenarioSpec(renamed), std::invalid_argument);
  // Only an expandable spec serializes (empty sites fails validation).
  ScenarioSpec invalid = CoordSpec();
  invalid.sites.clear();
  EXPECT_THROW(invalid.Describe(), std::invalid_argument);
  EXPECT_THROW([] {
    ScenarioSpec spaced = CoordSpec();
    spaced.name = "two words";
    return spaced.Describe();
  }(), std::invalid_argument);
  EXPECT_EQ(PredictorKindFromName("EWMA"), PredictorKind::kEwma);
  EXPECT_THROW(PredictorKindFromName("nope"), std::invalid_argument);
}

// ---- Wire protocol -------------------------------------------------------

TEST(FleetProtocol, JobRoundTripsAndFramesChecksum) {
  FleetWorkerJob job;
  job.spec = EverythingSpec();
  job.shard_size = 5;
  job.threads = 2;
  job.heartbeat_ms = 75;
  job.fingerprint = 0xDEADBEEFull;
  job.trace_dir = "/tmp/trace dir with spaces";

  std::istringstream in(EncodeFleetJob(job));
  const FleetWorkerJob parsed = ParseFleetJob(in);
  EXPECT_EQ(parsed.spec.Describe(), job.spec.Describe());
  EXPECT_EQ(parsed.shard_size, 5u);
  EXPECT_EQ(parsed.threads, 2u);
  EXPECT_EQ(parsed.heartbeat_ms, 75u);
  EXPECT_EQ(parsed.fingerprint, 0xDEADBEEFull);
  EXPECT_EQ(parsed.trace_dir, job.trace_dir);

  // No trace dir travels as "-" and comes back empty.
  job.trace_dir.clear();
  std::istringstream in2(EncodeFleetJob(job));
  EXPECT_TRUE(ParseFleetJob(in2).trace_dir.empty());

  std::istringstream garbage("shep-fleet-job v2\n");
  EXPECT_THROW(ParseFleetJob(garbage), std::invalid_argument);
  std::istringstream truncated(
      EncodeFleetJob(job).substr(0, 120));
  EXPECT_THROW(ParseFleetJob(truncated), std::invalid_argument);

  // Frame: header names the shard, the byte count, an FNV-1a 64 that
  // actually covers the payload, and the worker's lane syntheses.
  const std::string payload = "shep-fleet-partial payload\n";
  const std::string frame = EncodeFleetFrame(7, payload, 8);
  const std::string header_line = frame.substr(0, frame.find('\n'));
  EXPECT_EQ(header_line, "frame 7 " + std::to_string(payload.size()) + " " +
                             std::to_string(FleetFrameChecksum(payload)) +
                             " 8");
  const std::optional<FleetFrameHeader> header =
      ParseFleetFrameHeader(header_line);
  ASSERT_TRUE(header.has_value()) << header_line;
  EXPECT_EQ(header->shard, 7u);
  EXPECT_EQ(header->bytes, payload.size());
  EXPECT_EQ(header->checksum, FleetFrameChecksum(payload));
  EXPECT_EQ(header->lanes_synthesized, 8u);
  EXPECT_EQ(frame.substr(header_line.size() + 1, payload.size()), payload);
  EXPECT_NE(FleetFrameChecksum(payload), FleetFrameChecksum("x" + payload));
  EXPECT_NE(frame.find("end-frame\n"), std::string::npos);

  // Malformed headers: a missing field, trailing text (seconds after the
  // lane count included), a negative or non-numeric field, and a byte
  // count no honest frame can have.
  EXPECT_FALSE(ParseFleetFrameHeader("frame 7 27 123"));
  EXPECT_FALSE(ParseFleetFrameHeader(header_line + " 9"));
  EXPECT_FALSE(ParseFleetFrameHeader("frame 7 27 123 8 0x0p+0 0x0p+0"));
  EXPECT_FALSE(ParseFleetFrameHeader("frame -7 27 123 8"));
  EXPECT_FALSE(ParseFleetFrameHeader("frame 7 27 123 fast"));
  EXPECT_FALSE(ParseFleetFrameHeader("frame 3 99999999999999 0 0"));
  EXPECT_TRUE(ParseFleetFrameHeader(
      "frame 3 " + std::to_string(kMaxFleetFrameBytes) + " 0 0"));
}

TEST(FleetDispatch, LaneGroupsFollowTheLanesEachShardReads) {
  // CoordSpec's 3-node shards straddle cells but never sites: one group
  // per site, in plan order.
  const ShardPlan coord = BuildShardPlan(CoordSpec(), kShardSize);
  EXPECT_EQ(BuildLaneGroups(coord),
            (std::vector<std::vector<std::size_t>>{{0, 1, 2, 3},
                                                   {4, 5, 6, 7}}));

  // GroupedSpec: 8 groups of 6, groups in order of first appearance, and
  // every shard of a group reads the same lanes.
  const ShardPlan plan = BuildShardPlan(GroupedSpec(), kShardSize);
  const std::vector<std::vector<std::size_t>> groups = BuildLaneGroups(plan);
  auto lanes_of = [&plan](std::size_t shard) {
    std::set<std::size_t> lanes;
    const ShardRange& range = plan.shards[shard];
    for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
      lanes.insert(plan.matrix.trace_lane(plan.matrix.nodes[i]));
    }
    return lanes;
  };
  ASSERT_EQ(groups.size(), 8u);
  std::size_t covered = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ASSERT_EQ(groups[g].size(), 6u);
    if (g > 0) {
      EXPECT_LT(groups[g - 1].front(), groups[g].front());
    }
    EXPECT_EQ(lanes_of(groups[g].front()).size(), 3u);
    for (std::size_t shard : groups[g]) {
      EXPECT_EQ(lanes_of(shard), lanes_of(groups[g].front())) << shard;
    }
    covered += groups[g].size();
  }
  EXPECT_EQ(covered, plan.shards.size());

  EXPECT_EQ(BuildLaneGroups(BuildShardPlan(SingleGroupSpec(), kShardSize))
                .size(),
            1u);
}

// ---- The real multi-process runtime --------------------------------------

TEST(RunFleetCoordinated, TwoAndFourWorkersMatchSingleProcessBitIdentically) {
  SHEP_SKIP_WITHOUT_WORKER();
  const ShardPlan plan = BuildShardPlan(CoordSpec(), kShardSize);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    FleetCoordOptions options = BaseOptions();
    options.workers = workers;
    FleetCoordStats stats;
    const FleetSummary summary =
        RunFleetCoordinated(CoordSpec(), options, &stats);
    ExpectSummaryBitIdentical(summary, Monolithic());

    EXPECT_EQ(stats.frames_accepted, plan.shards.size());
    EXPECT_EQ(stats.workers_spawned, workers);
    EXPECT_EQ(stats.workers_died, 0u);
    EXPECT_EQ(stats.corrupt_frames, 0u);
    EXPECT_EQ(stats.shards_reassigned, 0u);
  }
}

TEST(RunFleetCoordinated, FaultedCampaignMergesBitIdentically) {
  SHEP_SKIP_WITHOUT_WORKER();
  // The fault spec travels inside the scenario's v2 text form, so every
  // worker rebuilds the same per-node fault schedules and the coordinated
  // merge must reproduce the monolithic faulted run bit for bit —
  // including the graceful-degradation columns that only faulted runs
  // render.
  ScenarioSpec spec = CoordSpec();
  spec.name = "coordinated_faulted";
  spec.faults.outage_rate_per_day = 0.3;
  spec.faults.outage_mean_slots = 6.0;
  spec.faults.dropout_rate_per_day = 0.5;
  spec.faults.dropout_mean_slots = 4.0;
  spec.faults.panel_decay_per_day = 0.001;
  spec.faults.battery_aging_per_day = 0.002;

  const FleetSummary mono = RunMonolithic(spec);

  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(spec, BaseOptions(), &stats);
  ExpectSummaryBitIdentical(summary, mono);
  for (const CellAccumulator& cell : summary.stats) {
    EXPECT_TRUE(cell.has_fault_stats());
  }
  EXPECT_NE(summary.ToCsv().find("availability"), std::string::npos);
  // Under CI load a slow worker can trip a deadline and be respawned —
  // that must never cost bit-identity, so only the floor is pinned.
  EXPECT_GE(stats.workers_spawned, 4u);
  EXPECT_EQ(stats.corrupt_frames, 0u);
}

TEST(RunFleetCoordinated, SurvivesASigkilledWorker) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // The acceptance pin: a real SIGKILL, before the victim contributes
  // anything, forces respawn + (possibly) reassignment.
  options.on_spawn = [](std::size_t spawn, long pid) {
    if (spawn == 0) kill(static_cast<pid_t>(pid), SIGKILL);
  };
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_GE(stats.respawns, 1u);
}

TEST(RunFleetCoordinated, SurvivesWorkersDyingMidCampaign) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // EVERY spawn (replacements included) exits abruptly after one valid
  // frame; the campaign only finishes through repeated reassignment.
  options.worker_args = {"--die-after-frames", "1"};
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_GE(stats.shards_reassigned, 1u);
  EXPECT_GE(stats.respawns, 1u);
}

TEST(RunFleetCoordinated, RejectsCorruptFramesAndReassigns) {
  SHEP_SKIP_WITHOUT_WORKER();
  for (const char* flag :
       {"--corrupt-frame", "--garble-frame", "--garble-header"}) {
    FleetCoordOptions options = BaseOptions();
    // Each spawn's SECOND frame lies (bad checksum / unparseable payload
    // behind a valid checksum / a ~100 TB byte count the coordinator must
    // neither buffer nor crash on); the first succeeds so the run
    // progresses.
    options.worker_args = {flag, "2"};
    FleetCoordStats stats;
    const FleetSummary summary =
        RunFleetCoordinated(CoordSpec(), options, &stats);
    ExpectSummaryBitIdentical(summary, Monolithic());
    EXPECT_GE(stats.corrupt_frames, 1u) << flag;
    EXPECT_GE(stats.workers_killed, 1u) << flag;
  }
}

TEST(RunFleetCoordinated, KillsHeartbeatingStragglersOnShardDeadline) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // Workers hang after one frame but KEEP heartbeating, so only the
  // per-shard deadline can unstick the run.
  options.worker_args = {"--hang-after-frames", "1"};
  options.shard_timeout_ms = 400;
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());
  EXPECT_GE(stats.workers_killed, 1u);
  EXPECT_GE(stats.shards_reassigned, 1u);
}

TEST(RunFleetCoordinated, OneWorkerSynthesizesEveryLaneExactlyOnce) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  options.workers = 1;
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(GroupedSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, RunMonolithic(GroupedSpec()));
  const ShardPlan plan = BuildShardPlan(GroupedSpec(), kShardSize);
  EXPECT_EQ(stats.lanes_synthesized, plan.lanes.size());
  EXPECT_EQ(stats.group_splits, 0u);
  EXPECT_EQ(stats.split_lanes, 0u);
  EXPECT_EQ(stats.frames_per_spawn,
            std::vector<std::size_t>{plan.shards.size()});
  EXPECT_GT(stats.worker_synth_seconds, 0.0);
  EXPECT_GT(stats.worker_sim_seconds, 0.0);
}

TEST(RunFleetCoordinated, FourWorkersSynthesizeEachLaneOncePlusSplitPieces) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(GroupedSpec(), BaseOptions(), &stats);
  ExpectSummaryBitIdentical(summary, RunMonolithic(GroupedSpec()));
  const ShardPlan plan = BuildShardPlan(GroupedSpec(), kShardSize);
  ASSERT_EQ(stats.workers_died + stats.workers_killed, 0u)
      << "the ledger is exact only for a fault-free run";
  // Each group's lanes are synthesized by the worker that started it;
  // only a split-off piece handed to a worker new to those lanes costs
  // extra, and the coordinator's dispatch log counts exactly those.
  EXPECT_EQ(stats.lanes_synthesized, plan.lanes.size() + stats.split_lanes);
  EXPECT_LT(stats.lanes_synthesized, 2 * plan.lanes.size());
  EXPECT_LE(stats.split_lanes, 3 * stats.group_splits);
  EXPECT_EQ(stats.frames_accepted, plan.shards.size());
  std::size_t frames = 0;
  for (std::size_t n : stats.frames_per_spawn) frames += n;
  EXPECT_EQ(frames, plan.shards.size());
}

TEST(RunFleetCoordinated, SingleGroupCampaignStillSpreadsAcrossWorkers) {
  SHEP_SKIP_WITHOUT_WORKER();
  // One lane group, four workers: without the tail split, one worker
  // would run the whole campaign while three sat idle.
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(SingleGroupSpec(), BaseOptions(), &stats);
  ExpectSummaryBitIdentical(summary, RunMonolithic(SingleGroupSpec()));
  EXPECT_GE(stats.group_splits, 1u);
  std::size_t spawns_with_frames = 0;
  for (std::size_t n : stats.frames_per_spawn) {
    if (n > 0) ++spawns_with_frames;
  }
  EXPECT_GE(spawns_with_frames, 2u);
}

TEST(RunFleetCoordinated, RequeuedLaneGroupsMergeBitIdentically) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // Every spawn dies after 3 frames, leaving in-flight shards and an
  // undispatched rest that go back to the queue as one group.
  options.worker_args = {"--die-after-frames", "3"};
  options.max_respawns = 64;
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(GroupedSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, RunMonolithic(GroupedSpec()));
  const ShardPlan plan = BuildShardPlan(GroupedSpec(), kShardSize);
  EXPECT_EQ(stats.frames_accepted, plan.shards.size());
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_GE(stats.shards_reassigned, 1u);
}

TEST(RunFleetCoordinated, ThrowsWhenEveryWorkerIsUnusable) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  options.workers = 2;
  options.max_respawns = 2;
  options.worker_args = {"--not-a-flag"};  // every spawn errors out at once.
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), options),
               std::runtime_error);
}

TEST(RunFleetCoordinated, ValidatesItsConfiguration) {
  FleetCoordOptions no_path;
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), no_path),
               std::invalid_argument);
  FleetCoordOptions zero_workers = BaseOptions();
  zero_workers.worker_path = "/does/not/matter";
  zero_workers.workers = 0;
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), zero_workers),
               std::invalid_argument);
}

TEST(RunFleetCoordinated, TracedRunLeavesTheSingleProcessFileSet) {
  SHEP_SKIP_WITHOUT_WORKER();
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(testing::TempDir()) / "shep_coord_trace_test";
  fs::remove_all(root);
  const fs::path mono_dir = root / "mono";
  const fs::path coord_dir = root / "coord";

  // Single-process traced reference, run shard-at-a-time with a flush
  // between shards — the workers' exact cadence, and the shape in which
  // trace files are deterministic (the ring can hold any one shard, so
  // nothing ever drops; a whole-campaign push could overflow the ring at
  // scheduling whim and drops change file bytes).
  const ScenarioSpec spec = CoordSpec();
  const ShardPlan plan = BuildShardPlan(spec, kShardSize);
  TraceSinkOptions sink_options;
  sink_options.directory = mono_dir.string();
  TraceSink sink(sink_options);
  FleetRunOptions mono_options;
  mono_options.shard_size = kShardSize;
  mono_options.trace_sink = &sink;
  std::vector<FleetPartial> mono_partials;
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    mono_partials.push_back(RunFleetShards(plan, {shard}, mono_options));
  }
  const FleetSummary mono = MergeFleetPartials(plan, mono_partials);

  // Coordinated traced run across 4 processes with a worker SIGKILLed:
  // reassignment must not leak duplicate or orphan trace files.
  FleetCoordOptions options = BaseOptions();
  options.trace_dir = coord_dir.string();
  options.on_spawn = [](std::size_t spawn, long pid) {
    if (spawn == 1) kill(static_cast<pid_t>(pid), SIGKILL);
  };
  const FleetSummary coordinated = RunFleetCoordinated(spec, options);
  ExpectSummaryBitIdentical(coordinated, mono);

  // Exactly one file per shard, byte-identical to the single-process one,
  // and no worker-* directories left behind.
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(coord_dir)) {
    EXPECT_TRUE(entry.is_regular_file())
        << "unexpected directory: " << entry.path();
    ++files;
  }
  EXPECT_EQ(files, plan.shards.size());
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    const std::string name =
        TraceShardFile::FileName(plan.fingerprint, shard);
    ASSERT_TRUE(fs::exists(coord_dir / name)) << name;
    EXPECT_EQ(slurp(coord_dir / name), slurp(mono_dir / name)) << name;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace shep

// coord.hpp — the multi-process fleet coordinator and its wire protocol.
//
// RunFleetCoordinated turns the serializable pipeline (shard plan →
// per-shard FleetPartial text → plan-order merge) into a real
// multi-process runtime: it fork/execs N copies of the shep_fleet_worker
// binary (tools/fleet/), hands each the full campaign once over stdin —
// the ScenarioSpec's exact text plus the shard size, so every worker
// rebuilds the IDENTICAL ShardPlan and proves it by echoing the plan
// fingerprint — then dispatches shards ("run <shard>") and streams each
// shard's FleetPartial::Serialize() text back over a pipe, framed and
// checksummed per shard so completed shards survive a worker death.
//
// Dispatch is lane-grouped, because weather synthesis is about half of a
// shard's cost and each worker keeps the lanes it has synthesized.  A
// lane group is the set of shards that read the same weather lanes
// (BuildLaneGroups); groups queue in plan order of first appearance.  A
// worker takes a whole group and runs it down one shard at a time, taking
// the next group only when its own undispatched rest is empty, so each
// lane is synthesized by one worker rather than by every worker.  Once no
// group is left unstarted, an idle worker takes the back half of the
// largest undispatched rest that holds at least 2 shards, which keeps a
// campaign with fewer groups than workers parallel.
//
// Control plane vs data plane (the caldera heartbeat/transport split):
// workers emit a heartbeat line between frames from a dedicated thread,
// and the coordinator's one poll(2) loop over the workers' stdout pipes
// timestamps every read and cuts each worker's input into whole lines and
// frames.  Silence past the liveness deadline means death (SIGKILL +
// reap), a per-shard deadline turns a hung-but-heartbeating worker into a
// straggler (same treatment), and either way the victim's in-flight shards
// and its undispatched rest go back to the front of the queue as one group
// for the survivors — safe by construction, because every frame carries
// one shard and MergeFleetPartials rejects duplicate coverage, so the
// merge is over exactly one accepted frame per shard.  First valid frame
// wins, and a reaped worker is never read again.
//
// The merged summary is bit-identical to single-process RunFleet at any
// worker count and any kill/reassignment schedule (pinned by
// tests/test_fleet_coord.cpp): partials travel as exact hexfloat text and
// the merge folds in plan order regardless of which process computed what.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/scenario.hpp"
#include "fleet/shard_plan.hpp"

namespace shep {

// ---- Wire protocol (shared by coordinator and worker binary) -------------

/// Worker heartbeat period: each worker writes an "hb" line this often.
inline constexpr std::chrono::milliseconds kFleetHeartbeatPeriod{100};

/// No bytes at all from a worker for this long (50 heartbeats) => dead.
inline constexpr std::chrono::milliseconds kFleetLivenessTimeout{5000};

/// Everything a worker needs before its first shard: the campaign itself
/// plus the knobs that must agree with the coordinator's plan.
struct FleetWorkerJob {
  ScenarioSpec spec;
  std::size_t shard_size = 8;
  /// Worker-local simulation threads (1 = serial).  Never changes results.
  std::size_t threads = 1;
  /// Expected plan fingerprint.  The worker rebuilds the plan from (spec,
  /// shard_size) and refuses the job when its fingerprint disagrees —
  /// catching coordinator/worker version skew before any work runs.
  std::uint64_t fingerprint = 0;
  /// Per-worker trace directory (empty = telemetry off).
  std::string trace_dir;
};

/// Text form of a job, written to the worker's stdin before any command.
/// The spec travels as its exact Describe() text, byte-counted so the
/// reader never guesses where it ends.
std::string EncodeFleetJob(const FleetWorkerJob& job);

/// Inverse of EncodeFleetJob.  Throws std::invalid_argument on malformed
/// input.  Does NOT verify the fingerprint — the worker does that after
/// rebuilding the plan.
[[nodiscard]] FleetWorkerJob ParseFleetJob(std::istream& in);

/// serdes::Fnv1a64 over the payload bytes; the frame checksum.
std::uint64_t FleetFrameChecksum(std::string_view payload);

/// One data-plane frame: "frame <shard> <bytes> <checksum> <lanes>\n" +
/// payload + "end-frame\n".  The payload is the FleetPartial::Serialize()
/// text of exactly that one shard (its phase seconds included); <lanes> is
/// the lanes the worker synthesized for the run
/// (FleetRunStats::lanes_synthesized), which the payload does not carry.
std::string EncodeFleetFrame(std::size_t shard, const std::string& payload,
                             std::uint64_t lanes_synthesized);

/// Largest payload a frame header may announce.  A bigger count is a lie,
/// never a reason to buffer that many bytes.
inline constexpr std::uint64_t kMaxFleetFrameBytes = std::uint64_t{1} << 30;

/// A parsed frame header line.
struct FleetFrameHeader {
  std::size_t shard = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
  std::uint64_t lanes_synthesized = 0;
};

/// Parses the header line EncodeFleetFrame writes (without its newline).
/// nullopt on any malformed field, trailing text, or a byte count above
/// kMaxFleetFrameBytes.
[[nodiscard]] std::optional<FleetFrameHeader> ParseFleetFrameHeader(
    std::string_view line);

// ---- Coordinator ---------------------------------------------------------

struct FleetCoordOptions {
  /// Path to the shep_fleet_worker binary (required).  Tests and tools get
  /// it from the SHEP_FLEET_WORKER_PATH compile definition.
  std::string worker_path;
  std::size_t workers = 4;
  std::size_t shard_size = 8;
  /// Simulation threads per worker; 1 keeps the scaling curve honest.
  std::size_t worker_threads = 1;
  /// A dispatched shard unanswered for this long => the worker is a
  /// straggler (possibly hung but still heartbeating) and is killed.
  std::uint32_t shard_timeout_ms = 120000;
  /// Telemetry root (empty = off).  Each spawn writes its shard trace
  /// files into <trace_dir>/worker-<spawn>/; after the run the
  /// coordinator moves each ACCEPTED shard's file up into <trace_dir> and
  /// removes the per-spawn directories, so the surviving set is identical
  /// to a single-process traced run.
  std::string trace_dir;
  /// Extra argv entries for every spawned worker; how tests inject
  /// deterministic faults (--die-after-frames, --corrupt-frame, ...).
  std::vector<std::string> worker_args;
  /// Test hook: observes every spawn (spawn id, pid) so a test can
  /// SIGKILL a real worker mid-campaign.
  std::function<void(std::size_t spawn, long pid)> on_spawn;
};

/// The plan's shards grouped by the weather-lane set they read; groups
/// and the shards within each are in plan order of first appearance.  The
/// coordinator's unit of dispatch.
std::vector<std::vector<std::size_t>> BuildLaneGroups(const ShardPlan& plan);

/// What the control loop saw; for logs, tests, and the demo.
struct FleetCoordStats {
  std::size_t workers_spawned = 0;   ///< including replacements.
  std::size_t workers_died = 0;      ///< exited/EOF with work outstanding.
  std::size_t workers_killed = 0;    ///< coordinator SIGKILLs.
  std::size_t respawns = 0;
  std::size_t shards_reassigned = 0;
  std::size_t frames_accepted = 0;
  std::size_t duplicate_frames = 0;  ///< valid frames for covered shards.
  std::size_t corrupt_frames = 0;    ///< header/checksum/parse failures.
  /// Worker counters (lanes from the frame headers, seconds from the
  /// payloads), summed over ACCEPTED frames only.  lanes_synthesized is
  /// the campaign's total lane syntheses across all workers:
  /// plan.lanes.size() when nothing is duplicated.
  std::size_t lanes_synthesized = 0;
  double worker_synth_seconds = 0.0;
  double worker_sim_seconds = 0.0;
  /// Lane groups split so an idle worker could take a back half.
  std::size_t group_splits = 0;
  /// The dispatch log's lane ledger: lanes the split-off pieces handed to
  /// workers that had not been handed them before.  In a fault-free run
  /// whose groups read disjoint lane sets, lanes_synthesized is exactly
  /// plan.lanes.size() + split_lanes.
  std::size_t split_lanes = 0;
  /// Accepted frames per spawn id (index == spawn).
  std::vector<std::size_t> frames_per_spawn;
};

/// Runs the campaign across `options.workers` worker processes and merges
/// the streamed partials; bit-identical to RunFleet(spec) with the same
/// shard_size.  A dead or killed worker is replaced while fewer than
/// 2 * workers spawns have ended without an accepted frame, so a fleet
/// that makes progress always finishes and total spawns stay within
/// workers + shards + 2 * workers.  Throws std::runtime_error when that
/// budget is spent with no live worker and shards uncovered, and
/// std::invalid_argument on a bad configuration.
FleetSummary RunFleetCoordinated(const ScenarioSpec& spec,
                                 const FleetCoordOptions& options,
                                 FleetCoordStats* stats = nullptr);

}  // namespace shep

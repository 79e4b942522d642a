// shep_fleet_worker — the worker end of the multi-process fleet runtime
// (src/fleet/coord.hpp documents the protocol).
//
// The process reads one job from stdin (the campaign's exact ScenarioSpec
// text + shard size), rebuilds the shard plan and proves identity by
// checking its fingerprint against the job's, then serves "run <shard>"
// commands: each shard runs through the ordinary RunFleetShards and goes
// back as one checksummed frame of FleetPartial::Serialize() text (phase
// seconds included), its header carrying the run's lane syntheses.  A
// heartbeat thread keeps a line flowing so the coordinator can tell a
// busy worker from a dead one.
//
// Fault-injection flags (used by tests/test_fleet_coord.cpp and the
// chaos mode of fleet_distributed_demo to exercise the coordinator's
// reassignment paths deterministically):
//   --die-after-frames N   exit(9) right after the Nth valid frame.
//   --corrupt-frame N      Nth frame: payload garbled AFTER the checksum
//                          is computed (framing lies — checksum fails).
//   --garble-frame N       Nth frame: payload garbled BEFORE the checksum
//                          (framing honest — FleetPartial::Parse fails).
//   --garble-header N      Nth frame: header announces an absurd byte
//                          count (the coordinator must not buffer it).
//   --hang-after-frames N  after N frames, heartbeat forever but answer
//                          nothing (the straggler the shard deadline
//                          exists for).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "fleet/coord.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/trace_cache.hpp"
#include "trace/sink.hpp"

namespace {

std::mutex g_out_mutex;

/// Full atomic-enough write to stdout: every message goes out in one
/// locked call so heartbeats never interleave with a frame.
void WriteOut(std::string_view data) {
  std::lock_guard<std::mutex> lock(g_out_mutex);  // shep-lint: allow(blocking-in-rt) bounded critical section (one pipe write, no allocation); a stalled pipe parks control and data plane alike and is covered by the coordinator's liveness deadline
  while (!data.empty()) {
    const ssize_t wrote = ::write(STDOUT_FILENO, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      std::exit(2);  // coordinator gone; nothing sensible left to do.
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
}

/// Heartbeat thread body: the worker's control plane.  One short line per
/// period, forever — the coordinator times out on silence, so this loop
/// must never park behind the data plane (sleep_for is its pacing, not a
/// hazard; the WriteOut lock is the one vetted exception, waived at its
/// definition).
// shep-lint: root(blocking-in-rt)
void HeartbeatMain(const std::atomic<bool>& stop, std::uint32_t period_ms) {
  while (!stop.load(std::memory_order_relaxed)) {
    WriteOut("hb\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
  }
}

[[noreturn]] void Fail(const std::string& message) {
  // The error must be one line for the coordinator to relay it.
  std::string one_line = message;
  for (char& c : one_line) {
    if (c == '\n') c = ' ';
  }
  WriteOut("error " + one_line + "\n");
  std::exit(1);
}

struct FaultFlags {
  std::size_t die_after_frames = 0;   ///< 0 = never.
  std::size_t corrupt_frame = 0;      ///< 1-based frame index; 0 = never.
  std::size_t garble_frame = 0;       ///< 1-based frame index; 0 = never.
  std::size_t garble_header = 0;      ///< 1-based frame index; 0 = never.
  std::size_t hang_after_frames = 0;  ///< 0 = never.
};

FaultFlags ParseArgs(int argc, char** argv) {
  FaultFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto value = [&]() -> std::size_t {
      const std::optional<long long> parsed =
          has_value ? shep::ParseInt(argv[i + 1]) : std::nullopt;
      if (!parsed || *parsed < 0) {
        Fail("worker flag " + std::string(arg) +
             " needs a non-negative integer");
      }
      ++i;
      return static_cast<std::size_t>(*parsed);
    };
    if (arg == "--die-after-frames") {
      flags.die_after_frames = value();
    } else if (arg == "--corrupt-frame") {
      flags.corrupt_frame = value();
    } else if (arg == "--garble-frame") {
      flags.garble_frame = value();
    } else if (arg == "--garble-header") {
      flags.garble_header = value();
    } else if (arg == "--hang-after-frames") {
      flags.hang_after_frames = value();
    } else {
      Fail("unknown worker flag: " + std::string(arg));
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  const FaultFlags flags = ParseArgs(argc, argv);

  shep::FleetWorkerJob job;
  shep::ShardPlan plan;
  try {
    job = shep::ParseFleetJob(std::cin);
    plan = shep::BuildShardPlan(job.spec, job.shard_size);
  } catch (const std::exception& e) {
    Fail(e.what());
  }
  if (plan.fingerprint != job.fingerprint) {
    Fail("plan fingerprint mismatch: coordinator and worker disagree about"
         " the campaign (version skew?)");
  }

  // Heartbeat: the control plane.  One short line per period, forever —
  // cheap enough to never gate, and the coordinator times out on silence.
  std::atomic<bool> stop_heartbeat{false};
  std::thread heartbeat(
      [&] { HeartbeatMain(stop_heartbeat, job.heartbeat_ms); });

  std::unique_ptr<shep::ThreadPool> pool;
  if (job.threads > 1) pool = std::make_unique<shep::ThreadPool>(job.threads);
  // One lane per entry is plenty for a single campaign; the cap (rather
  // than unbounded) is deliberate — a worker reused across many jobs would
  // otherwise grow forever (the coordinator-era leak this PR closes).
  shep::TraceCache cache(plan.lanes.size());
  std::unique_ptr<shep::TraceSink> sink;
  if (!job.trace_dir.empty()) {
    shep::TraceSinkOptions sink_options;
    sink_options.directory = job.trace_dir;
    // Size the ring to hold the largest shard outright: the worker runs
    // one shard per frame and flushes between frames, so a ring this big
    // can never overflow — trace files become a pure function of the
    // shard, byte-identical no matter which worker (or retry) wrote them.
    std::size_t max_shard_nodes = 0;
    for (const shep::ShardRange& range : plan.shards) {
      max_shard_nodes = std::max(max_shard_nodes, range.node_count());
    }
    sink_options.ring_capacity =
        std::max<std::size_t>(sink_options.ring_capacity,
                              max_shard_nodes * job.spec.days *
                                      static_cast<std::size_t>(
                                          job.spec.slots_per_day) +
                                  2);
    sink = std::make_unique<shep::TraceSink>(sink_options);
  }
  shep::FleetRunOptions run_options;
  run_options.pool = pool.get();
  run_options.shard_size = job.shard_size;
  run_options.trace_cache = &cache;
  run_options.trace_sink = sink.get();

  std::size_t frames_written = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit") break;
    if (line.rfind("run ", 0) != 0) Fail("unknown command: " + line);
    const std::optional<long long> shard = shep::ParseInt(line.substr(4));
    if (!shard || static_cast<std::size_t>(*shard) >= plan.shards.size()) {
      Fail("run command names a shard outside the plan: " + line);
    }

    std::string payload;
    shep::FleetRunStats run_stats;
    try {
      const shep::FleetPartial partial = shep::RunFleetShards(
          plan, {static_cast<std::size_t>(*shard)}, run_options, &run_stats);
      payload = partial.Serialize();
    } catch (const std::exception& e) {
      Fail(e.what());
    }

    const std::size_t frame_index = frames_written + 1;
    if (flags.garble_frame == frame_index) {
      payload[0] = '#';  // honest checksum over an unparseable payload.
    }
    std::string frame = shep::EncodeFleetFrame(
        static_cast<std::size_t>(*shard), payload,
        run_stats.trace_cache_misses);
    if (flags.corrupt_frame == frame_index) {
      // Garble the payload INSIDE the already-checksummed frame: the
      // header's byte count still matches, the checksum does not.
      frame[frame.find('\n') + 1] = '#';
    }
    if (flags.garble_header == frame_index) {
      // "frame <shard> <bytes> ..." with <bytes> swapped for ~100 TB.
      const std::size_t count_at = frame.find(' ', 6) + 1;
      frame.replace(count_at, frame.find(' ', count_at) - count_at,
                    "99999999999999");
    }
    WriteOut(frame);
    ++frames_written;

    if (flags.die_after_frames != 0 &&
        frames_written >= flags.die_after_frames) {
      std::_Exit(9);  // no bye, no flush: an honest crash.
    }
    if (flags.hang_after_frames != 0 &&
        frames_written >= flags.hang_after_frames) {
      while (true) {  // heartbeating zombie; only SIGKILL ends it.
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
    }
  }

  stop_heartbeat.store(true, std::memory_order_relaxed);
  heartbeat.join();
  WriteOut("bye\n");
  return 0;
}

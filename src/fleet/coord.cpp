#include "fleet/coord.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/serdes.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "trace/trace_file.hpp"

namespace shep {

// ---- Wire protocol -------------------------------------------------------

std::string EncodeFleetJob(const FleetWorkerJob& job) {
  SHEP_REQUIRE(job.trace_dir.find('\n') == std::string::npos,
               "trace directory must not contain a newline");
  const std::string spec_text = job.spec.Describe();
  std::ostringstream os;
  os << "shep-fleet-job v2\n";
  os << "fingerprint " << job.fingerprint << '\n';
  os << "shard-size " << job.shard_size << '\n';
  os << "threads " << job.threads << '\n';
  // The directory is the rest of the line ("-" = telemetry off), so paths
  // with spaces survive.
  os << "trace-dir " << (job.trace_dir.empty() ? "-" : job.trace_dir) << '\n';
  os << "spec " << spec_text.size() << '\n' << spec_text;
  os << "end-job\n";
  return os.str();
}

FleetWorkerJob ParseFleetJob(std::istream& in) {
  serdes::ExpectToken(in, "shep-fleet-job");
  serdes::ExpectToken(in, "v2");
  FleetWorkerJob job;
  serdes::ExpectToken(in, "fingerprint");
  job.fingerprint = serdes::ReadU64(in);
  serdes::ExpectToken(in, "shard-size");
  job.shard_size = static_cast<std::size_t>(serdes::ReadU64(in));
  serdes::ExpectToken(in, "threads");
  job.threads = static_cast<std::size_t>(serdes::ReadU64(in));
  serdes::ExpectToken(in, "trace-dir");
  in >> std::ws;
  std::string dir;
  std::getline(in, dir);
  SHEP_REQUIRE(!dir.empty(), "fleet job is missing the trace directory");
  job.trace_dir = dir == "-" ? std::string() : dir;
  serdes::ExpectToken(in, "spec");
  const std::uint64_t spec_bytes = serdes::ReadU64(in);
  SHEP_REQUIRE(in.get() == '\n', "fleet job spec must start on a new line");
  // Read in chunks: the count comes off the wire, so storage grows only
  // with bytes that actually arrive.
  std::string spec_text;
  char chunk[4096];
  while (spec_text.size() < spec_bytes) {
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(spec_bytes - spec_text.size(), sizeof chunk));
    in.read(chunk, static_cast<std::streamsize>(take));
    SHEP_REQUIRE(in.gcount() == static_cast<std::streamsize>(take),
                 "fleet job ended inside the spec text");
    spec_text.append(chunk, take);
  }
  job.spec = ParseScenarioSpec(spec_text);
  serdes::ExpectToken(in, "end-job");
  return job;
}

std::uint64_t FleetFrameChecksum(std::string_view payload) {
  return serdes::Fnv1a64(payload);
}

std::string EncodeFleetFrame(std::size_t shard, const std::string& payload,
                             std::uint64_t lanes_synthesized) {
  std::ostringstream os;
  os << "frame " << shard << ' ' << payload.size() << ' '
     << FleetFrameChecksum(payload) << ' ' << lanes_synthesized << '\n';
  os << payload;
  os << "end-frame\n";
  return os.str();
}

std::optional<FleetFrameHeader> ParseFleetFrameHeader(std::string_view line) {
  std::istringstream in{std::string(line)};
  FleetFrameHeader header;
  try {
    serdes::ExpectToken(in, "frame");
    header.shard = static_cast<std::size_t>(serdes::ReadU64(in));
    header.bytes = serdes::ReadU64(in);
    header.checksum = serdes::ReadU64(in);
    header.lanes_synthesized = serdes::ReadU64(in);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  in >> std::ws;
  if (!in.eof() || header.bytes > kMaxFleetFrameBytes) return std::nullopt;
  return header;
}

// ---- Coordinator ---------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// Shards dispatched to a worker ahead of completion: 2 hides the dispatch
/// round-trip, and every frame still carries exactly one shard.
constexpr std::size_t kMaxInflightPerWorker = 2;

constexpr std::string_view kFrameTrailer = "end-frame\n";

/// Writes the whole buffer; false on any error (EPIPE = worker death).
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t wrote = ::write(fd, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
  return true;
}

enum class ShardState { kPending, kInflight, kDone };

/// Shards in plan order; the unit a worker takes from the queue.
using LaneGroup = std::deque<std::size_t>;

/// Sorted, de-duplicated weather lanes one shard's nodes read.
std::vector<std::size_t> ShardLanes(const ShardPlan& plan, std::size_t shard) {
  std::vector<std::size_t> lanes;
  const ShardRange& range = plan.shards[shard];
  for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
    lanes.push_back(plan.matrix.trace_lane(plan.matrix.nodes[i]));
  }
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  return lanes;
}

struct WorkerProc {
  std::size_t spawn = 0;  ///< monotone spawn id (stable across respawns).
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;
  bool alive = true;    ///< still read: no end of file, "bye" or "error".
  bool faulty = false;  ///< sent a corrupt frame or missed a deadline.
  bool reaped = false;
  Clock::time_point last_activity;
  std::string input;  ///< bytes read but not yet taken as lines or frames.
  /// Dispatched, unanswered shards and when each was sent.
  std::map<std::size_t, Clock::time_point> inflight;
  LaneGroup rest;  ///< undispatched rest of its current lane group.
  std::vector<bool> lanes_held;  ///< lanes of every shard handed to it.
};

struct CoordState {
  const ShardPlan* plan = nullptr;
  std::vector<ShardState> shard_state;
  std::vector<std::vector<std::size_t>> shard_lanes;  ///< per shard.
  std::deque<LaneGroup> pending;  ///< unstarted (or requeued) groups.
  std::vector<std::optional<FleetPartial>> partials;  ///< per shard.
  std::vector<std::size_t> winning_spawn;             ///< per shard.
  std::size_t done = 0;
  /// Reaped spawns that never had a frame accepted; the respawn budget.
  std::size_t unproductive_ends = 0;

  std::vector<WorkerProc> workers;
  std::string last_worker_error;
  FleetCoordStats stats;
};

/// The checked partial a frame carries, or nullopt when the frame lies:
/// bad checksum, unparseable payload, foreign fingerprint, or not exactly
/// the announced shard.
std::optional<FleetPartial> CheckFrame(const ShardPlan& plan,
                                       const FleetFrameHeader& header,
                                       std::string_view payload) {
  if (FleetFrameChecksum(payload) != header.checksum) return std::nullopt;
  try {
    FleetPartial parsed = FleetPartial::Parse(std::string(payload));
    if (parsed.plan_fingerprint == plan.fingerprint &&
        parsed.shards.size() == 1 && parsed.shards[0].shard == header.shard &&
        header.shard < plan.shards.size()) {
      return parsed;
    }
  } catch (const std::exception&) {
    // fall through: corrupt.
  }
  return std::nullopt;
}

/// Records one checked frame; the first valid frame per shard wins.
void AcceptFrame(CoordState& state, WorkerProc& worker,
                 const FleetFrameHeader& header, FleetPartial partial) {
  const std::size_t shard = header.shard;
  worker.inflight.erase(shard);
  FleetCoordStats& stats = state.stats;
  if (state.shard_state[shard] == ShardState::kDone) {
    ++stats.duplicate_frames;  // a reassigned shard finished twice.
    return;
  }
  state.shard_state[shard] = ShardState::kDone;
  ++stats.frames_accepted;
  ++stats.frames_per_spawn[worker.spawn];
  stats.lanes_synthesized += static_cast<std::size_t>(header.lanes_synthesized);
  stats.worker_synth_seconds += partial.synth_seconds;
  stats.worker_sim_seconds += partial.sim_seconds;
  state.partials[shard] = std::move(partial);
  state.winning_spawn[shard] = worker.spawn;
  ++state.done;
}

/// Takes every complete line and whole frame out of the worker's input
/// buffer, leaving a partial one for the next read.  Stops reading the
/// worker for good on "bye", "error" (it is about to exit) or a lying
/// frame (its framing can no longer be trusted, so it becomes faulty).
void TakeInput(CoordState& state, WorkerProc& worker) {
  std::string_view input = worker.input;
  while (worker.alive && !worker.faulty) {
    const std::size_t eol = input.find('\n');
    if (eol == std::string_view::npos) break;
    const std::string_view line = input.substr(0, eol);
    if (line == "bye") {
      worker.alive = false;
    } else if (line.rfind("error ", 0) == 0) {
      state.last_worker_error = std::string(line.substr(6));
      worker.alive = false;
    } else if (line.rfind("frame ", 0) == 0) {
      // A header that does not parse, or a frame its trailer does not
      // close, is a lie, like a bad checksum.
      const std::optional<FleetFrameHeader> header =
          ParseFleetFrameHeader(line);
      const std::size_t payload_at = eol + 1;
      if (header && input.size() - payload_at <
                        header->bytes + kFrameTrailer.size()) {
        break;  // the rest of the frame has not arrived yet.
      }
      std::optional<FleetPartial> partial;
      if (header && input.substr(payload_at + header->bytes,
                                 kFrameTrailer.size()) == kFrameTrailer) {
        partial = CheckFrame(*state.plan, *header,
                             input.substr(payload_at, header->bytes));
      }
      if (!partial) {
        ++state.stats.corrupt_frames;
        worker.faulty = true;
        break;
      }
      AcceptFrame(state, worker, *header, std::move(*partial));
      input.remove_prefix(payload_at + header->bytes + kFrameTrailer.size());
      continue;
    }
    // "hb", and unknown lines for forward compatibility: activity only.
    input.remove_prefix(eol + 1);
  }
  worker.input.erase(0, worker.input.size() - input.size());
}

/// One read from a worker whose stdout poll() reported ready.  End of file
/// is the worker's death, whatever half line or half frame is buffered.
void ReadWorker(CoordState& state, WorkerProc& worker) {
  char buf[1 << 16];
  const ssize_t got = ::read(worker.stdout_fd, buf, sizeof buf);
  if (got < 0 && errno == EINTR) return;
  if (got <= 0) {
    worker.alive = false;
    return;
  }
  worker.last_activity = Clock::now();
  worker.input.append(buf, static_cast<std::size_t>(got));
  TakeInput(state, worker);
}

// shep-lint: root(signal-safety)
void SpawnWorker(CoordState& state, const FleetCoordOptions& options,
                 const std::string& job_text, std::size_t spawn) {
  int to_child[2];
  int from_child[2];
  SHEP_CHECK(::pipe2(to_child, O_CLOEXEC) == 0 &&
                 ::pipe2(from_child, O_CLOEXEC) == 0,
             "coordinator cannot create worker pipes");
  // argv is fully built BEFORE the fork: the child of a multi-threaded
  // parent may not allocate (another thread can hold the heap lock at the
  // fork instant, and it never unlocks in the child), so the region
  // between fork() and execv touches only pre-built storage.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(options.worker_path.c_str()));
  for (const std::string& arg : options.worker_args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec.  dup2
    // clears O_CLOEXEC on the copies; every other coordinator fd closes at
    // exec, so sibling pipes never leak into workers (which would mask
    // EOF-based death detection).
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execv(options.worker_path.c_str(), argv.data());
    ::_exit(127);
  }
  // A failed fork returns -1 (never 0), so checking after the child block
  // keeps the check out of the async-signal-safe region.
  SHEP_CHECK(pid >= 0, "coordinator cannot fork a worker");
  ::close(to_child[0]);
  ::close(from_child[1]);

  WorkerProc& worker = state.workers.emplace_back();
  worker.spawn = spawn;
  worker.pid = pid;
  worker.stdin_fd = to_child[1];
  worker.stdout_fd = from_child[0];
  worker.last_activity = Clock::now();
  worker.lanes_held.assign(state.plan->lanes.size(), false);
  // The job header is far smaller than the pipe buffer, so this never
  // blocks even against a worker that dies before reading it.
  if (!WriteAll(worker.stdin_fd, job_text)) worker.faulty = true;
  ++state.stats.workers_spawned;
  state.stats.frames_per_spawn.push_back(0);
  if (options.on_spawn) options.on_spawn(spawn, static_cast<long>(pid));
}

/// When the worker turns faulty unless it sends something: its liveness
/// deadline, or an earlier deadline of a shard it has not answered.
Clock::time_point Deadline(const WorkerProc& worker,
                           Clock::duration shard_timeout) {
  Clock::time_point at = worker.last_activity + kFleetLivenessTimeout;
  for (const auto& [shard, sent_at] : worker.inflight) {
    at = std::min(at, sent_at + shard_timeout);
  }
  return at;
}

/// Ends a worker process: SIGKILL (a no-op on an exited pid), close its
/// pipes, reap it.
void StopWorker(WorkerProc& worker) {
  worker.reaped = true;
  ::kill(worker.pid, SIGKILL);
  ::close(worker.stdin_fd);
  ::close(worker.stdout_fd);
  int status = 0;
  ::waitpid(worker.pid, &status, 0);
}

/// Stops one dead or condemned worker and requeues its uncovered shards —
/// in-flight ones and its undispatched rest — as one group at the front of
/// the queue.
void ReapWorker(CoordState& state, WorkerProc& worker) {
  StopWorker(worker);
  if (worker.faulty) {
    ++state.stats.workers_killed;
  } else {
    ++state.stats.workers_died;
  }
  if (state.stats.frames_per_spawn[worker.spawn] == 0) {
    ++state.unproductive_ends;
  }
  LaneGroup requeued = std::move(worker.rest);
  worker.rest.clear();
  for (const auto& [shard, sent_at] : worker.inflight) {
    if (state.shard_state[shard] == ShardState::kInflight) {
      state.shard_state[shard] = ShardState::kPending;
      requeued.push_back(shard);
      ++state.stats.shards_reassigned;
    }
  }
  worker.inflight.clear();
  if (!requeued.empty()) {
    std::sort(requeued.begin(), requeued.end());
    state.pending.push_front(std::move(requeued));
  }
}

/// Makes `shards` the worker's rest and returns how many of their lanes
/// it had never been handed before (the lanes it will synthesize).
std::size_t Assign(CoordState& state, WorkerProc& worker, LaneGroup shards) {
  std::size_t new_lanes = 0;
  for (std::size_t shard : shards) {
    for (std::size_t lane : state.shard_lanes[shard]) {
      if (!worker.lanes_held[lane]) {
        worker.lanes_held[lane] = true;
        ++new_lanes;
      }
    }
  }
  worker.rest = std::move(shards);
  return new_lanes;
}

/// Refills a worker whose rest is empty: the next queued group, else — once
/// no group is left unstarted, and only for an idle worker — the back half
/// of the largest undispatched rest that holds at least 2 shards.  False
/// when there is nothing to take.
bool TakeWork(CoordState& state, WorkerProc& worker) {
  if (!state.pending.empty()) {
    Assign(state, worker, std::move(state.pending.front()));
    state.pending.pop_front();
    return true;
  }
  if (!worker.inflight.empty()) return false;
  WorkerProc* victim = nullptr;
  for (WorkerProc& other : state.workers) {
    if (other.reaped || other.rest.size() < 2) continue;
    if (victim == nullptr || other.rest.size() > victim->rest.size()) {
      victim = &other;
    }
  }
  if (victim == nullptr) return false;
  LaneGroup& rest = victim->rest;
  const auto back_half =
      rest.end() - static_cast<std::ptrdiff_t>(rest.size() / 2);
  LaneGroup piece(back_half, rest.end());
  rest.erase(back_half, rest.end());
  ++state.stats.group_splits;
  state.stats.split_lanes += Assign(state, worker, std::move(piece));
  return true;
}

/// Moves each accepted shard's trace file from its winning spawn's private
/// directory up into the root, then drops the per-spawn directories, so a
/// coordinated traced run leaves exactly the file set a single-process
/// traced run would.
void CollectTraceFiles(const CoordState& state,
                       const FleetCoordOptions& options) {
  namespace fs = std::filesystem;
  const fs::path root(options.trace_dir);
  for (std::size_t shard = 0; shard < state.winning_spawn.size(); ++shard) {
    const std::string name =
        TraceShardFile::FileName(state.plan->fingerprint, shard);
    const fs::path from =
        root / ("worker-" + std::to_string(state.winning_spawn[shard])) /
        name;
    std::error_code ec;
    fs::rename(from, root / name, ec);
    SHEP_CHECK(!ec, "coordinator cannot collect trace file " + from.string() +
                        ": " + ec.message());
  }
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("worker-", 0) == 0) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

/// RAII SIGPIPE guard: a write to a SIGKILLed worker's stdin must surface
/// as EPIPE (handled as a death), not kill the coordinator.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &previous_);
  }
  ~ScopedIgnoreSigpipe() { ::sigaction(SIGPIPE, &previous_, nullptr); }

 private:
  struct sigaction previous_ = {};
};

}  // namespace

std::vector<std::vector<std::size_t>> BuildLaneGroups(const ShardPlan& plan) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::vector<std::size_t>, std::size_t> group_of_lanes;
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    const auto [it, inserted] =
        group_of_lanes.try_emplace(ShardLanes(plan, shard), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(shard);
  }
  return groups;
}

FleetSummary RunFleetCoordinated(const ScenarioSpec& spec,
                                 const FleetCoordOptions& options,
                                 FleetCoordStats* stats) {
  SHEP_REQUIRE(!options.worker_path.empty(),
               "coordinator needs a worker binary path");
  SHEP_REQUIRE(options.workers > 0, "coordinator needs at least one worker");

  const ShardPlan plan = BuildShardPlan(spec, options.shard_size);

  FleetWorkerJob job;
  job.spec = plan.matrix.spec;  // slot_seconds already forced by expansion.
  job.shard_size = options.shard_size;
  job.threads = options.worker_threads;
  job.fingerprint = plan.fingerprint;

  CoordState state;
  state.plan = &plan;
  state.shard_state.assign(plan.shards.size(), ShardState::kPending);
  state.partials.resize(plan.shards.size());
  state.winning_spawn.assign(plan.shards.size(), 0);
  state.shard_lanes.reserve(plan.shards.size());
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    state.shard_lanes.push_back(ShardLanes(plan, i));
  }
  for (std::vector<std::size_t>& group : BuildLaneGroups(plan)) {
    state.pending.emplace_back(group.begin(), group.end());
  }

  ScopedIgnoreSigpipe sigpipe_guard;
  std::size_t next_spawn = 0;
  auto spawn_one = [&] {
    FleetWorkerJob worker_job = job;
    if (!options.trace_dir.empty()) {
      worker_job.trace_dir =
          (std::filesystem::path(options.trace_dir) /
           ("worker-" + std::to_string(next_spawn)))
              .string();
    }
    SpawnWorker(state, options, EncodeFleetJob(worker_job), next_spawn);
    ++next_spawn;
  };

  // Everything below must tear the fleet down on ANY exit path — a leaked
  // child would outlive the run and keep writing into its pipes.  A worker
  // mid-shard would finish the shard before noticing a closed stdin, so
  // SIGKILL keeps shutdown prompt (every needed frame is already accepted).
  auto shutdown = [&] {
    for (WorkerProc& worker : state.workers) {
      if (!worker.reaped) StopWorker(worker);
    }
  };

  try {
    for (std::size_t i = 0; i < options.workers; ++i) spawn_one();

    const std::chrono::milliseconds shard_timeout(options.shard_timeout_ms);
    std::vector<pollfd> fds;
    std::vector<WorkerProc*> polled;
    while (state.done < plan.shards.size()) {
      const Clock::time_point now = Clock::now();
      // Deadlines: silence => dead, an unanswered shard => straggler.
      // Both make the worker "faulty", and one reap path handles every
      // dead or condemned worker and requeues its shards.
      std::size_t live = 0;
      for (WorkerProc& worker : state.workers) {
        if (worker.reaped) continue;
        if (worker.alive && now >= Deadline(worker, shard_timeout)) {
          worker.faulty = true;
        }
        if (!worker.alive || worker.faulty) {
          ReapWorker(state, worker);
        } else {
          ++live;
        }
      }

      // Keep the fleet at strength while work remains and spawns keep
      // paying off (see RunFleetCoordinated's contract).
      while (live < options.workers &&
             state.unproductive_ends < 2 * options.workers) {
        ++state.stats.respawns;
        spawn_one();
        ++live;
      }
      if (live == 0) {
        throw std::runtime_error(
            "fleet coordinator lost every worker with shards uncovered"
            " (respawn budget exhausted)" +
            (state.last_worker_error.empty()
                 ? std::string()
                 : "; last worker error: " + state.last_worker_error));
      }

      // Dispatch: refill every live worker up to its inflight window, each
      // from its own lane group.  Then wait for input or the earliest
      // deadline, and take what arrived.
      Clock::time_point wake = Clock::time_point::max();
      fds.clear();
      polled.clear();
      for (WorkerProc& worker : state.workers) {
        if (worker.reaped || !worker.alive || worker.faulty) continue;
        while (worker.inflight.size() < kMaxInflightPerWorker) {
          if (worker.rest.empty() && !TakeWork(state, worker)) break;
          const std::size_t shard = worker.rest.front();
          worker.rest.pop_front();
          state.shard_state[shard] = ShardState::kInflight;
          worker.inflight.emplace(shard, Clock::now());
          if (!WriteAll(worker.stdin_fd,
                        "run " + std::to_string(shard) + "\n")) {
            // EPIPE: the worker has exited.  Its stdout still holds what it
            // wrote before dying, then end of file, which reaps it as a
            // death with this shard requeued.
            break;
          }
        }
        wake = std::min(wake, Deadline(worker, shard_timeout));
        fds.push_back({worker.stdout_fd, POLLIN, 0});
        polled.push_back(&worker);
      }
      if (polled.empty()) continue;  // every new spawn is already condemned.
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
          wake - Clock::now());
      const int ready =
          ::poll(fds.data(), fds.size(),
                 static_cast<int>(std::max<std::int64_t>(wait.count(), 0)));
      SHEP_CHECK(ready >= 0 || errno == EINTR, "coordinator poll failed");
      for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
        if (fds[i].revents != 0) ReadWorker(state, *polled[i]);
      }
    }
    shutdown();
  } catch (...) {
    shutdown();
    throw;
  }

  if (!options.trace_dir.empty()) CollectTraceFiles(state, options);
  if (stats != nullptr) *stats = state.stats;

  std::vector<FleetPartial> partials;
  partials.reserve(plan.shards.size());
  for (auto& partial : state.partials) {
    SHEP_CHECK(partial.has_value(), "coordinator finished with a hole");
    partials.push_back(std::move(*partial));
  }
  return MergeFleetPartials(plan, partials);
}

}  // namespace shep

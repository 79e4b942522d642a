#include "fleet/coord.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
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
  os << "shep-fleet-job v1\n";
  os << "fingerprint " << job.fingerprint << '\n';
  os << "shard-size " << job.shard_size << '\n';
  os << "threads " << job.threads << '\n';
  os << "heartbeat-ms " << job.heartbeat_ms << '\n';
  // The directory is the rest of the line ("-" = telemetry off), so paths
  // with spaces survive.
  os << "trace-dir " << (job.trace_dir.empty() ? "-" : job.trace_dir) << '\n';
  os << "spec " << spec_text.size() << '\n' << spec_text;
  os << "end-job\n";
  return os.str();
}

FleetWorkerJob ParseFleetJob(std::istream& in) {
  serdes::ExpectToken(in, "shep-fleet-job");
  serdes::ExpectToken(in, "v1");
  FleetWorkerJob job;
  serdes::ExpectToken(in, "fingerprint");
  job.fingerprint = serdes::ReadU64(in);
  serdes::ExpectToken(in, "shard-size");
  job.shard_size = static_cast<std::size_t>(serdes::ReadU64(in));
  serdes::ExpectToken(in, "threads");
  job.threads = static_cast<std::size_t>(serdes::ReadU64(in));
  serdes::ExpectToken(in, "heartbeat-ms");
  job.heartbeat_ms = static_cast<std::uint32_t>(serdes::ReadU64(in));
  serdes::ExpectToken(in, "trace-dir");
  in >> std::ws;
  std::string dir;
  std::getline(in, dir);
  SHEP_REQUIRE(!dir.empty(), "fleet job is missing the trace directory");
  job.trace_dir = dir == "-" ? std::string() : dir;
  serdes::ExpectToken(in, "spec");
  const std::uint64_t spec_bytes = serdes::ReadU64(in);
  SHEP_REQUIRE(in.get() == '\n', "fleet job spec must start on a new line");
  std::string spec_text(spec_bytes, '\0');
  in.read(spec_text.data(), static_cast<std::streamsize>(spec_bytes));
  SHEP_REQUIRE(in.gcount() == static_cast<std::streamsize>(spec_bytes),
               "fleet job ended inside the spec text");
  job.spec = ParseScenarioSpec(spec_text);
  serdes::ExpectToken(in, "end-job");
  return job;
}

std::uint64_t FleetFrameChecksum(std::string_view payload) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis.
  for (unsigned char c : payload) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a 64 prime.
  }
  return h;
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

/// Buffered reader over a pipe fd: the frame protocol needs both
/// line-at-a-time and exact-byte reads from one stream.
class FdReader {
 public:
  explicit FdReader(int fd) : fd_(fd) {}

  /// Next '\n'-terminated line without the terminator; nullopt on EOF (a
  /// final unterminated line is discarded — a dying worker's half-written
  /// line is never actionable).
  std::optional<std::string> ReadLine() {
    std::string line;
    while (true) {
      for (; pos_ < len_; ++pos_) {
        if (buf_[pos_] == '\n') {
          ++pos_;
          return line;
        }
        line.push_back(buf_[pos_]);
      }
      if (!Fill()) return std::nullopt;
    }
  }

  /// Exactly `n` bytes into `out`; false on EOF before they all arrive.
  /// The reservation is capped: `n` comes off the wire, and the bytes
  /// behind a lying count may never arrive.
  bool ReadExact(std::string& out, std::size_t n) {
    out.clear();
    out.reserve(std::min<std::size_t>(n, std::size_t{1} << 20));
    while (out.size() < n) {
      if (pos_ == len_ && !Fill()) return false;
      const std::size_t take = std::min(n - out.size(), len_ - pos_);
      out.append(buf_ + pos_, take);
      pos_ += take;
    }
    return true;
  }

 private:
  bool Fill() {
    pos_ = len_ = 0;
    while (true) {
      const ssize_t got = ::read(fd_, buf_, sizeof buf_);
      if (got > 0) {
        len_ = static_cast<std::size_t>(got);
        return true;
      }
      if (got == 0) return false;
      if (errno != EINTR) return false;
    }
  }

  int fd_;
  char buf_[1 << 16];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

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
  std::thread reader;

  // Guarded by the coordinator mutex:
  bool alive = true;    ///< streaming, and its stdin still takes writes.
  bool faulty = false;  ///< sent a corrupt frame; must be killed.
  bool reaped = false;
  Clock::time_point last_activity;
  std::set<std::size_t> inflight;                 ///< dispatched shards.
  std::map<std::size_t, Clock::time_point> sent;  ///< dispatch times.
  LaneGroup rest;  ///< undispatched rest of its current lane group.
  std::vector<bool> lanes_held;  ///< lanes of every shard handed to it.
};

struct CoordState {
  std::mutex mutex;
  std::condition_variable cv;

  const ShardPlan* plan = nullptr;
  std::vector<ShardState> shard_state;
  std::vector<std::vector<std::size_t>> shard_lanes;  ///< per shard.
  std::deque<LaneGroup> pending;  ///< unstarted (or requeued) groups.
  std::vector<std::optional<FleetPartial>> partials;  ///< per shard.
  std::vector<std::size_t> winning_spawn;             ///< per shard.
  std::size_t done = 0;

  std::vector<std::unique_ptr<WorkerProc>> workers;
  std::string last_worker_error;
  FleetCoordStats stats;
};

/// Per-worker reader thread: the data plane.  Every byte refreshes the
/// liveness timestamp; frames are checked (checksum, parse, fingerprint,
/// exactly the announced shard) and the first valid frame per shard wins.
void ReaderMain(CoordState& state, WorkerProc& worker) {
  FdReader reader(worker.stdout_fd);
  while (true) {
    std::optional<std::string> line = reader.ReadLine();
    if (!line) break;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      worker.last_activity = Clock::now();
    }
    if (*line == "hb") continue;
    if (*line == "bye") break;
    if (line->rfind("error ", 0) == 0) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.last_worker_error = line->substr(6);
      break;  // the worker is about to exit; EOF follows.
    }
    if (line->rfind("frame ", 0) != 0) continue;  // forward compatibility.

    // Header + payload + trailer, off-lock (pipe reads may block).  A
    // header that does not parse is a lie, like a bad checksum.
    const std::optional<FleetFrameHeader> header =
        ParseFleetFrameHeader(*line);
    std::optional<FleetPartial> partial;
    if (header) {
      std::string payload;
      bool ok = reader.ReadExact(payload, header->bytes);
      if (ok) {
        std::optional<std::string> trailer = reader.ReadLine();
        ok = trailer && *trailer == "end-frame";
      }
      if (!ok) break;  // stream died mid-frame: plain worker death.

      // Validate the frame itself; any lie makes the worker faulty (its
      // framing can no longer be trusted, so stop reading it entirely).
      if (FleetFrameChecksum(payload) == header->checksum) {
        try {
          FleetPartial parsed = FleetPartial::Parse(payload);
          if (parsed.plan_fingerprint == state.plan->fingerprint &&
              parsed.shards.size() == 1 &&
              parsed.shards[0].shard == header->shard &&
              header->shard < state.plan->shards.size()) {
            partial = std::move(parsed);
          }
        } catch (const std::exception&) {
          // fall through: corrupt.
        }
      }
    }

    std::unique_lock<std::mutex> lock(state.mutex);
    worker.last_activity = Clock::now();
    if (!partial) {
      ++state.stats.corrupt_frames;
      worker.faulty = true;
      state.cv.notify_all();
      break;
    }
    const std::size_t shard = header->shard;
    worker.inflight.erase(shard);
    worker.sent.erase(shard);
    if (state.shard_state[shard] == ShardState::kDone) {
      ++state.stats.duplicate_frames;  // a reassigned shard finished twice.
      continue;
    }
    state.shard_state[shard] = ShardState::kDone;
    FleetCoordStats& stats = state.stats;
    ++stats.frames_accepted;
    ++stats.frames_per_spawn[worker.spawn];
    stats.lanes_synthesized +=
        static_cast<std::size_t>(header->lanes_synthesized);
    stats.worker_synth_seconds += partial->synth_seconds;
    stats.worker_sim_seconds += partial->sim_seconds;
    state.partials[shard] = std::move(partial);
    state.winning_spawn[shard] = worker.spawn;
    ++state.done;
    state.cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  worker.alive = false;
  state.cv.notify_all();
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

  auto worker = std::make_unique<WorkerProc>();
  worker->spawn = spawn;
  worker->pid = pid;
  worker->stdin_fd = to_child[1];
  worker->stdout_fd = from_child[0];
  worker->last_activity = Clock::now();
  worker->lanes_held.assign(state.plan->lanes.size(), false);
  // The job header is far smaller than the pipe buffer, so this never
  // blocks even against a worker that dies before reading it.
  if (!WriteAll(worker->stdin_fd, job_text)) worker->faulty = true;
  WorkerProc& ref = *worker;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    ++state.stats.workers_spawned;
    state.stats.frames_per_spawn.push_back(0);
    state.workers.push_back(std::move(worker));
  }
  ref.reader = std::thread([&state, &ref] { ReaderMain(state, ref); });
  if (options.on_spawn) options.on_spawn(spawn, static_cast<long>(pid));
}

/// Kills (if needed), joins, reaps, and requeues one worker's uncovered
/// shards — in-flight ones and its undispatched rest — as one group at the
/// front of the queue.  Called with the lock HELD; drops it around the
/// blocking join and waitpid (the reader thread itself takes the lock).
void ReapWorker(CoordState& state, std::unique_lock<std::mutex>& lock,
                WorkerProc& worker, bool was_killed) {
  worker.reaped = true;
  lock.unlock();
  ::close(worker.stdin_fd);
  ::kill(worker.pid, SIGKILL);  // no-op on an already-dead pid (ESRCH).
  if (worker.reader.joinable()) worker.reader.join();
  ::close(worker.stdout_fd);
  int status = 0;
  ::waitpid(worker.pid, &status, 0);
  lock.lock();
  if (was_killed) {
    ++state.stats.workers_killed;
  } else {
    ++state.stats.workers_died;
  }
  LaneGroup requeued = std::move(worker.rest);
  worker.rest.clear();
  for (std::size_t shard : worker.inflight) {
    if (state.shard_state[shard] == ShardState::kInflight) {
      state.shard_state[shard] = ShardState::kPending;
      requeued.push_back(shard);
      ++state.stats.shards_reassigned;
    }
  }
  worker.inflight.clear();
  worker.sent.clear();
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
  for (const auto& other : state.workers) {
    if (other->reaped || other->rest.size() < 2) continue;
    if (victim == nullptr || other->rest.size() > victim->rest.size()) {
      victim = other.get();
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
  SHEP_REQUIRE(options.max_inflight_per_worker > 0,
               "max_inflight_per_worker must be positive");
  const std::size_t respawn_budget =
      options.max_respawns != 0 ? options.max_respawns : 2 * options.workers;

  const ShardPlan plan = BuildShardPlan(spec, options.shard_size);

  FleetWorkerJob job;
  job.spec = plan.matrix.spec;  // slot_seconds already forced by expansion.
  job.shard_size = options.shard_size;
  job.threads = options.worker_threads;
  job.heartbeat_ms = options.heartbeat_ms;
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
  // child would outlive the run and keep writing into freed state.
  auto shutdown = [&] {
    std::unique_lock<std::mutex> lock(state.mutex);
    for (auto& worker : state.workers) {
      if (worker->reaped) continue;
      worker->reaped = true;
      lock.unlock();
      WriteAll(worker->stdin_fd, "quit\n");
      ::close(worker->stdin_fd);
      // A worker mid-shard ignores quit until done; SIGKILL keeps
      // shutdown prompt (every needed frame has already been accepted).
      ::kill(worker->pid, SIGKILL);
      if (worker->reader.joinable()) worker->reader.join();
      ::close(worker->stdout_fd);
      int status = 0;
      ::waitpid(worker->pid, &status, 0);
      lock.lock();
    }
  };

  try {
    for (std::size_t i = 0; i < options.workers; ++i) spawn_one();

    std::unique_lock<std::mutex> lock(state.mutex);
    const auto liveness =
        std::chrono::milliseconds(options.liveness_timeout_ms);
    const auto shard_deadline =
        std::chrono::milliseconds(options.shard_timeout_ms);
    while (state.done < plan.shards.size()) {
      const Clock::time_point now = Clock::now();

      // Deadlines: silence => dead, an unanswered shard => straggler.
      // Both become "faulty" so one reap path below handles everything.
      for (auto& worker : state.workers) {
        if (worker->reaped || !worker->alive || worker->faulty) continue;
        if (now - worker->last_activity > liveness) {
          worker->faulty = true;
          continue;
        }
        for (const auto& [shard, sent_at] : worker->sent) {
          if (now - sent_at > shard_deadline) {
            worker->faulty = true;
            break;
          }
        }
      }

      // Reap every dead or condemned worker and requeue its shards.
      for (auto& worker : state.workers) {
        if (worker->reaped) continue;
        if (!worker->alive || worker->faulty) {
          ReapWorker(state, lock, *worker, worker->faulty);
        }
      }

      // Keep the fleet at strength while work remains.
      std::size_t live = 0;
      for (const auto& worker : state.workers) {
        if (!worker->reaped) ++live;
      }
      while (live < options.workers && state.done < plan.shards.size() &&
             state.stats.respawns < respawn_budget) {
        ++state.stats.respawns;
        lock.unlock();
        spawn_one();
        lock.lock();
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
      // from its own lane group.
      for (auto& worker : state.workers) {
        if (worker->reaped || !worker->alive || worker->faulty) continue;
        while (worker->inflight.size() < options.max_inflight_per_worker) {
          if (worker->rest.empty() && !TakeWork(state, *worker)) break;
          const std::size_t shard = worker->rest.front();
          worker->rest.pop_front();
          state.shard_state[shard] = ShardState::kInflight;
          worker->inflight.insert(shard);
          worker->sent.emplace(shard, Clock::now());
          const std::string command = "run " + std::to_string(shard) + "\n";
          const int fd = worker->stdin_fd;
          lock.unlock();
          const bool sent_ok = WriteAll(fd, command);
          lock.lock();
          if (!sent_ok) {
            // EPIPE: the worker is already gone (its reader just has not
            // seen the EOF yet), so it is reaped next iteration as a
            // death, not as a kill.
            worker->alive = false;
            break;
          }
        }
      }

      state.cv.wait_for(lock, std::chrono::milliseconds(10));
    }
    lock.unlock();
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

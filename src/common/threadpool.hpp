// threadpool.hpp — minimal work-stealing-free thread pool.
//
// Shared by every batch layer: the exhaustive (α, D, K, N) sweeps of the
// paper's Sec. IV (src/sweep) and the fleet-scale scenario runner
// (src/fleet) both evaluate thousands of independent work items, so a fixed
// pool plus a shared atomic index is all the scheduling we need; no
// external dependency is warranted.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace shep {

/// Fixed-size thread pool executing enqueued tasks FIFO.
class ThreadPool {
 public:
  /// \param threads  worker count; 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; raw-submitted tasks must not throw (nothing past the
  /// worker loop could rethrow them — use ParallelFor for fallible work, it
  /// captures and rethrows at its own join).  The pool offers no global
  /// join: ParallelFor joins each batch on its own counter, and the
  /// destructor runs every queued task before it returns.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, count) across the pool (or inline when pool is
/// null), blocking until all iterations complete.
///
/// The join is per-batch: two ParallelFor calls racing on the same pool
/// each return as soon as their OWN iterations are done.  If any iteration
/// throws, the first exception of the batch is captured, remaining
/// not-yet-started iterations are abandoned, and the exception is rethrown
/// here on the calling thread once every in-flight iteration has retired —
/// the pool stays usable afterwards.
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn);

/// Number of batch workers a ParallelFor over `count` iterations uses on
/// `pool`: the size of the dense worker-id range ParallelForWorker passes
/// to its callback, and therefore the number of per-worker scratch slots a
/// caller must provide.
std::size_t ParallelWorkerCount(const ThreadPool* pool, std::size_t count);

/// ParallelFor variant whose callback additionally receives the dense id
/// in [0, ParallelWorkerCount(pool, count)) of the batch worker running
/// the iteration.  No two iterations with the same worker id ever run
/// concurrently, so the id can index unsynchronized per-worker scratch
/// (reusable buffers, local accumulators).  The id must not influence
/// results — only where intermediate state lives.
void ParallelForWorker(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t i)>& fn);

}  // namespace shep

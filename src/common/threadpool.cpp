#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace shep {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

/// Join state of one ParallelFor call.  Owning it per batch is what lets
/// two concurrent batches on one pool finish independently, and gives the
/// batch's first exception a home until the calling thread can rethrow it.
struct BatchState {
  std::atomic<std::size_t> cursor{0};   ///< next iteration to claim.
  std::atomic<bool> failed{false};      ///< stop claiming new iterations.
  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending_workers = 0;      ///< pool tasks not yet retired.
  std::exception_ptr first_error;       ///< first throw of the batch.
};

}  // namespace

void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  ParallelForWorker(pool, count,
                    [&fn](std::size_t /*worker*/, std::size_t i) { fn(i); });
}

std::size_t ParallelWorkerCount(const ThreadPool* pool, std::size_t count) {
  if (pool == nullptr || pool->thread_count() <= 1 || count <= 1) return 1;
  return std::min(pool->thread_count(), count);
}

void ParallelForWorker(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t i)>& fn) {
  if (pool == nullptr || pool->thread_count() <= 1 || count <= 1) {
    // Inline execution throws straight through to the caller already.
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  // Chunk by a shared atomic cursor: cheap and balances uneven iteration
  // costs (small-N sweeps finish much faster than N=288 ones).  Each of the
  // `workers` submitted tasks is one batch worker; its loop runs on one
  // pool thread, so iterations sharing a worker id are fully serialized —
  // the contract that lets callers give each id private scratch.
  auto batch = std::make_shared<BatchState>();
  const std::size_t workers = ParallelWorkerCount(pool, count);
  batch->pending_workers = workers;
  for (std::size_t w = 0; w < workers; ++w) {
    // fn is captured by reference: ParallelFor blocks until the batch has
    // fully retired, so the referent outlives every worker task.
    pool->Submit([batch, count, w, &fn] {
      while (!batch->failed.load(std::memory_order_relaxed)) {
        const std::size_t i = batch->cursor.fetch_add(1);
        if (i >= count) break;
        try {
          fn(w, i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(batch->mutex);
          if (batch->first_error == nullptr) {
            batch->first_error = std::current_exception();
          }
          batch->failed.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(batch->mutex);
      if (--batch->pending_workers == 0) batch->done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done.wait(lock, [&] { return batch->pending_workers == 0; });
  if (batch->first_error != nullptr) std::rethrow_exception(batch->first_error);
}

}  // namespace shep

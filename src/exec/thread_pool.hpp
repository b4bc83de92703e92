// Fixed-size worker pool with a fork-join `parallel_for` — the execution
// substrate for the batch layer's multi-replication experiment runner and
// its sharded scheduler / service fan-outs.
//
// Design constraints (why not std::async / TBB):
//  - deterministic reductions: tasks are identified by index only; callers
//    collect per-index results and reduce them in index order, so the
//    outcome never depends on which worker ran what;
//  - no dependencies: the build needs nothing beyond the C++ toolchain.
//
// A pool of `threads` spawns `threads - 1` background workers; the calling
// thread participates too, so ThreadPool(1) degenerates into a plain inline
// loop with zero synchronization.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dbs::exec {

class ThreadPool {
 public:
  /// `threads` >= 1 is the parallelism degree (calling thread included).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, calling thread included.
  [[nodiscard]] std::size_t worker_count() const { return threads_.size() + 1; }

  /// The body of one task: `index` in [0, n).
  using Task = std::function<void(std::size_t index)>;

  /// Runs `fn(0..n-1)` across the workers and returns when every task has
  /// finished. Indices are claimed dynamically (no static partition), so
  /// uneven task costs balance out. n == 0 returns immediately.
  ///
  /// `grain` >= 1 is the chunk size of one dynamic claim: a worker grabs
  /// `grain` consecutive indices per fetch_add and runs them back to back.
  /// The default (1) maximizes balancing; a larger grain amortizes the
  /// claim + completion bookkeeping when tasks are tiny relative to an
  /// atomic RMW (e.g. K small scheduler-shard iterations fanned out over a
  /// wide pool), at the cost of coarser balancing. Within a chunk indices
  /// run in order, so per-index determinism contracts are unaffected.
  ///
  /// Exceptions: if one or more tasks throw, the exception of the
  /// lowest-indexed failing task is rethrown on the caller (the rest are
  /// discarded); remaining tasks still run to completion first, so partial
  /// results stay consistent.
  ///
  /// Reentrancy: calling parallel_for from inside a task of the same pool
  /// would deadlock a classic fork-join pool (the worker would wait on
  /// itself). Here the nested call is detected and executed inline,
  /// serially, on the calling thread — correct, just not extra-parallel.
  void parallel_for(std::size_t n, const Task& fn, std::size_t grain = 1);

  /// Map convenience: returns `fn(i)` for each index, in index order.
  /// R must be default-constructible and movable.
  template <class R, class F>
  std::vector<R> parallel_map(std::size_t n, F&& fn, std::size_t grain = 1) {
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); }, grain);
    return out;
  }

 private:
  /// One fork-join region. Heap-allocated and shared with the workers so a
  /// late-waking worker can still safely observe an already-finished batch.
  struct Batch;

  void worker_main();
  static void run_tasks(Batch& batch);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a new batch is posted
  std::shared_ptr<Batch> batch_;     ///< current batch (null when idle)
  std::uint64_t batch_seq_ = 0;      ///< bumped per posted batch
  bool stop_ = false;
};

}  // namespace dbs::exec

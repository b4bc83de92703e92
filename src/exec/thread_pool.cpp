#include "exec/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <limits>

#include "common/assert.hpp"

namespace dbs::exec {

namespace {

/// The pool the current thread is executing a task for — the reentrancy
/// guard. Plain thread_local: one level is enough because nested calls run
/// inline on the same thread.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

struct ThreadPool::Batch {
  const ThreadPool* owner = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;             ///< indices claimed per fetch_add
  const Task* fn = nullptr;
  std::atomic<std::size_t> next{0};  ///< next unclaimed task index
  std::atomic<std::size_t> done{0};  ///< completed tasks
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
};

ThreadPool::ThreadPool(std::size_t threads) {
  DBS_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  threads_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i)
    threads_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_tasks(Batch& batch) {
  // Scoped reentrancy guard: while this thread runs tasks for `batch` it is
  // marked as belonging to the owning pool, so a nested parallel_for on the
  // same pool is detected and inlined. Saving/restoring (instead of
  // clearing) keeps the guard correct when pools nest across each other.
  const ThreadPool* saved_pool = tls_pool;
  tls_pool = batch.owner;
  for (;;) {
    // One claim takes `grain` consecutive indices; the chunk runs in index
    // order so per-index semantics (error_index, determinism contracts)
    // match grain == 1 exactly.
    const std::size_t begin =
        batch.next.fetch_add(batch.grain, std::memory_order_relaxed);
    if (begin >= batch.n) break;
    const std::size_t end = std::min(begin + batch.grain, batch.n);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*batch.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch.error_mutex);
        if (i < batch.error_index) {
          batch.error = std::current_exception();
          batch.error_index = i;
        }
      }
    }
    const std::size_t chunk = end - begin;
    if (batch.done.fetch_add(chunk, std::memory_order_acq_rel) + chunk ==
        batch.n) {
      std::lock_guard<std::mutex> lock(batch.done_mutex);
      batch.done_cv.notify_all();
    }
  }
  tls_pool = saved_pool;
}

void ThreadPool::worker_main() {
  std::uint64_t seen_seq = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || batch_seq_ != seen_seq; });
      if (stop_) return;
      seen_seq = batch_seq_;
      batch = batch_;
    }
    // A null batch means the region already finished (posted and drained
    // before this worker woke up); just go back to waiting.
    if (!batch) continue;
    run_tasks(*batch);
  }
}

void ThreadPool::parallel_for(std::size_t n, const Task& fn,
                              std::size_t grain) {
  DBS_REQUIRE(fn != nullptr, "parallel_for needs a body");
  DBS_REQUIRE(grain >= 1, "parallel_for grain must be >= 1");
  if (n == 0) return;

  // Nested call from inside one of our own tasks, or a trivially small /
  // single-threaded region: run inline on the calling thread.
  if (tls_pool == this || threads_.empty() || n == 1) {
    std::exception_ptr first_error;
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (i < first_error_index) {
          first_error = std::current_exception();
          first_error_index = i;
        }
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->owner = this;
  batch->n = n;
  batch->grain = grain;
  batch->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = batch;
    ++batch_seq_;
  }
  work_cv_.notify_all();

  // The caller works too, then waits for stragglers.
  run_tasks(*batch);
  {
    std::unique_lock<std::mutex> lock(batch->done_mutex);
    batch->done_cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
  }
  {
    // Detach so a late-waking worker (holding its own shared_ptr) finds an
    // exhausted batch rather than the next region's state.
    std::lock_guard<std::mutex> lock(mutex_);
    if (batch_ == batch) batch_.reset();
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace dbs::exec

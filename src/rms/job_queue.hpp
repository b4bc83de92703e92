// Server-side storage of jobs and the FIFO of pending dynamic requests.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rms/job.hpp"

namespace dbs::rms {

class JobQueue {
 public:
  JobQueue() = default;
  // Every owned job points back at its queue (see Job::set_state), so the
  // queue stays where it was built.
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Takes ownership; id must be fresh and greater than every id ever
  /// added (the server allocates them sequentially). The job is filed
  /// under its current state, so restored mid-lifecycle jobs land in the
  /// right index.
  Job& add(std::unique_ptr<Job> job);

  /// Destroys a finished job's storage. After this the id is unknown —
  /// at()/contains() behave as if the job never existed — so callers must
  /// only retire once no component will look the id up again (the server
  /// defers retirement by a latency-derived grace period). Amortized O(1):
  /// the id-ordered index tombstones the entry and compacts when
  /// tombstones outnumber live jobs.
  void retire(JobId id);

  /// Lowest live (non-retired) job id; `fallback` when no job is live.
  /// Monotone non-decreasing over time, so it can serve as the floor for
  /// caches windowed by job id.
  [[nodiscard]] std::uint64_t min_live_id(std::uint64_t fallback = 0) const;

  /// Jobs retired so far (observability).
  [[nodiscard]] std::uint64_t retired_count() const { return retired_total_; }

  [[nodiscard]] bool contains(JobId id) const { return jobs_.contains(id); }
  [[nodiscard]] Job& at(JobId id);
  [[nodiscard]] const Job& at(JobId id) const;

  /// Jobs in Queued state, in submission (id) order. A view of an index
  /// kept current at every state change; the next transition of any job
  /// invalidates it.
  [[nodiscard]] std::span<const Job* const> queued() const { return queued_; }
  /// Jobs in Running or DynQueued state, in id order; same view rules.
  [[nodiscard]] std::span<const Job* const> running() const {
    return running_;
  }

  /// All live (non-retired) jobs, in id order.
  [[nodiscard]] std::vector<const Job*> all() const;

  /// Live job count (excludes retired jobs).
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  // --- dynamic request FIFO --------------------------------------------
  void push_dyn_request(DynRequest req);
  /// Pending dynamic requests in FIFO order.
  [[nodiscard]] const std::deque<DynRequest>& dyn_requests() const {
    return dyn_fifo_;
  }
  /// Removes the request with the given id; false if absent.
  bool remove_dyn_request(RequestId id);
  /// The pending request of `job`, if any.
  [[nodiscard]] const DynRequest* dyn_request_of(JobId job) const;

 private:
  friend class Job;
  /// Moves `job` between the state indexes after its state changed from
  /// `from`; called by Job::set_state only.
  void refile(const Job& job, JobState from);
  [[nodiscard]] std::vector<const Job*>* index_for(JobState s);
  void maybe_compact_order();

  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
  // Submission order as (id, job) pairs sorted by id: unique_ptr storage
  // is stable, so all() walks this vector without per-job hash lookups.
  // Retirement nulls the pointer (the id stays, keeping the vector
  // binary-searchable) and compaction erases the tombstones once they
  // outnumber live entries.
  std::vector<std::pair<JobId, Job*>> order_;
  std::size_t order_tombstones_ = 0;
  /// Lazily advanced index of the first live entry in order_.
  mutable std::size_t first_live_ = 0;
  std::uint64_t retired_total_ = 0;
  // The state indexes, each sorted by id. Only finished jobs are in
  // neither, so retirement never touches them.
  std::vector<const Job*> queued_;   ///< Queued
  std::vector<const Job*> running_;  ///< Running or DynQueued
  std::deque<DynRequest> dyn_fifo_;
};

}  // namespace dbs::rms

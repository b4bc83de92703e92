// The persistent physical availability profile.
//
// Instead of rebuilding "capacity minus running holds minus down-node
// cores" from the whole running set every iteration (O(running)), the
// tracker listens to the server's job-lifecycle events and patches one
// long-lived AvailabilityProfile in O(log running) per state change:
//
//   job start            subtract its cores over [now, hold end)
//   finish/requeue/qdel  add the recorded hold back over [event, hold end)
//   dynamic grant        subtract the extra cores over the remaining hold
//   release/shrink/loss  add the returned cores back over the remaining hold
//
// advance() is called once per scheduler iteration: it moves the profile
// origin to `now`, re-extends holds of jobs running past their walltime
// (the `hold_end_for` clamp) via a lazy min-heap of hold ends, and syncs
// the down-node free-core block against the cluster ledger. After
// advance() the profile is byte-for-byte identical to a from-scratch build
// over the running set and the down nodes. rebuild() is that build; a
// durable-state restore relies on it, and the event-storm tests check the
// tracker against a reference build at every scheduler trigger.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/availability_profile.hpp"
#include "rms/server.hpp"

namespace dbs::core {

/// End of a running job's physical hold as seen from `now`: its walltime
/// end, clamped forward for jobs running past their walltime so the hold
/// never collapses to an empty interval. The single definition shared by
/// the tracker and the admission stage's victim patches — the clamps can
/// never diverge.
[[nodiscard]] inline Time hold_end_for(const rms::Job& job, Time now) {
  return max(job.walltime_end(), now + Duration::micros(1));
}

class PhysicalProfileTracker final : public rms::ServerObserver {
 public:
  explicit PhysicalProfileTracker(const rms::Server& server);

  /// Brings the profile up to `now` (monotonic): advances the origin,
  /// re-extends overrun holds and syncs the down-node block. Idempotent at
  /// a fixed `now`, so dry-run and live iterations at the same instant see
  /// the same profile.
  void advance(Time now);

  /// The maintained profile; canonical (coalesced) after advance().
  [[nodiscard]] const AvailabilityProfile& profile() const { return profile_; }

  /// Discards everything and re-seeds from the server's current running
  /// set and cluster ledger, exactly like construction. Used after a
  /// durable-state restore, which re-creates jobs without firing the
  /// observer events this tracker normally ingests.
  void rebuild();

  // --- ServerObserver ------------------------------------------------------
  void on_job_start(const rms::Job& job) override;
  void on_job_finish(const rms::Job& job) override;
  void on_requeue(const rms::Job& job) override;
  void on_cancel(const rms::Job& job, CoreCount released) override;
  void on_dyn_grant(const rms::Job& job, const rms::DynRequest&,
                    CoreCount extra) override;
  void on_dyn_release(const rms::Job& job, CoreCount cores) override;
  void on_malleable_shrink(const rms::Job& job, CoreCount cores) override;
  void on_nodes_lost(const rms::Job& job, CoreCount lost) override;

 private:
  struct Hold {
    CoreCount cores;  ///< currently allocated (kept in sync with the job)
    Time end;         ///< hold end currently subtracted from the profile
  };

  [[nodiscard]] Time now() const { return server_.simulator().now(); }
  void open_hold(const rms::Job& job, Time at);
  void close_hold(const rms::Job& job, Time at);
  /// Returns `cores` of the job's hold to the pool over what remains of it.
  void return_cores(const rms::Job& job, CoreCount cores, Time at);
  void heap_push(Time end, JobId id);

  const rms::Server& server_;
  AvailabilityProfile profile_;
  std::unordered_map<JobId, Hold> holds_;
  /// Min-heap of (hold end, job) with lazy deletion: entries whose hold is
  /// gone or was re-extended are skipped when popped.
  std::vector<std::pair<Time, JobId>> heap_;
  CoreCount down_free_ = 0;
};

}  // namespace dbs::core

// The pbs_server analogue: owns the job queue, executes scheduler commands
// against the cluster, and relays the dynamic (de)allocation protocol
// between the moms and the scheduler.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "obs/registry.hpp"
#include "rms/comm.hpp"
#include "rms/job_queue.hpp"
#include "sim/simulator.hpp"

namespace dbs::obs {
class Tracer;
struct Sinks;
namespace rec {
class FlightRecorder;
}
}

namespace dbs::rms {

class MomManager;

/// Passive observer of server-side job events (metrics, tests).
class ServerObserver {
 public:
  virtual ~ServerObserver() = default;
  virtual void on_submit(const Job&) {}
  virtual void on_job_start(const Job&) {}
  virtual void on_job_finish(const Job&) {}
  virtual void on_dyn_request(const Job&, const DynRequest&) {}
  virtual void on_dyn_grant(const Job&, const DynRequest&, CoreCount /*extra*/) {}
  virtual void on_dyn_reject(const Job&, const DynRequest&) {}
  virtual void on_dyn_release(const Job&, CoreCount /*cores*/) {}
  virtual void on_malleable_shrink(const Job&, CoreCount /*cores*/) {}
  virtual void on_requeue(const Job&) {}
  /// Node failure took part of the job's allocation (the job survives on
  /// the remainder; whole-allocation losses requeue instead).
  virtual void on_nodes_lost(const Job&, CoreCount /*lost*/) {}
  /// qdel removed the job; `released` is the allocation freed (0 if the
  /// job was still queued).
  virtual void on_cancel(const Job&, CoreCount /*released*/) {}
};

class Server {
 public:
  Server(sim::Simulator& simulator, cluster::Cluster& cluster,
         LatencyModel latency);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Wires the mom manager (must be called once before any job starts).
  void set_moms(MomManager* moms) { moms_ = moms; }

  /// Registers the scheduler wake-up. Any job/resource state change
  /// schedules one call (coalesced) after `latency.scheduler_delay`.
  void set_scheduler_trigger(std::function<void()> trigger);

  void add_observer(ServerObserver* observer);
  /// Deregisters an observer (no-op if it was never added); observers with
  /// a shorter lifetime than the server must call this before dying.
  void remove_observer(ServerObserver* observer);

  /// Observability sinks: the tracer (nullable) receives job-lifecycle and
  /// dynamic-protocol trace events; protocol counters and the dyn-request
  /// queue-residency histogram land in the registry (null selects the
  /// global one).
  void set_sinks(const obs::Sinks& sinks);

  // --- client commands ---------------------------------------------------
  /// qsub: enqueues the job; effective immediately (submission latency is
  /// applied by the workload driver, which schedules the submit event).
  JobId submit(JobSpec spec, std::unique_ptr<Application> app);

  /// qdel: cancels a queued or running job. Returns false if unknown/done.
  bool cancel(JobId id);

  // --- queries -------------------------------------------------------------
  [[nodiscard]] const JobQueue& jobs() const { return queue_; }
  [[nodiscard]] const cluster::Cluster& cluster() const { return cluster_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] const LatencyModel& latency() const { return latency_; }
  [[nodiscard]] const Job& job(JobId id) const { return queue_.at(id); }

  // --- scheduler commands ---------------------------------------------------
  /// Allocates and dispatches a queued job. Returns false (and changes
  /// nothing) if the cluster lacks free cores.
  bool start_job(JobId id, bool backfilled);

  /// Grants the pending dynamic request `req`: allocates the extra cores,
  /// expands the job and informs the mother superior. Returns false (and
  /// changes nothing) if the cores are no longer free.
  bool grant_dyn(RequestId req);

  /// Rejects the pending dynamic request. With the negotiation extension
  /// (deadline in the future) the request simply stays queued and
  /// `availability_hint` is recorded; otherwise it is removed and the
  /// application notified.
  void reject_dyn(RequestId req, std::optional<Time> availability_hint);

  /// Preempts a running preemptible job: releases its cores and requeues it
  /// (progress lost; the application restarts from scratch).
  void preempt(JobId id);

  /// Scheduler-initiated shrink of a running malleable job: releases
  /// `cores` immediately (so they can serve a dynamic request) and informs
  /// the application via on_reshaped. Precondition: the job is malleable
  /// and keeps at least its malleable_min cores.
  void shrink_job(JobId id, CoreCount cores);

  /// Last availability hint returned for a job's negotiating request.
  [[nodiscard]] std::optional<Time> availability_hint(JobId id) const;

  // --- fault handling -------------------------------------------------------
  /// A compute node fails: it goes Down, every job with cores on it loses
  /// them, and each affected application decides (via on_nodes_lost)
  /// whether it survives on the remainder — typically by immediately
  /// requesting spare nodes — or must be requeued. Jobs that lose their
  /// whole allocation are requeued outright.
  void node_failure(NodeId node);

  /// Brings a Down node back into service.
  void restore_node(NodeId node);

  // --- mom-facing entry points (already latency-delayed by the caller) ----
  void mom_dyn_request(JobId id, CoreCount extra_cores, Duration timeout,
                       int attempt);
  void mom_job_finished(JobId id);
  void mom_dyn_release(JobId id, const cluster::Placement& freed);
  /// The application could not survive a node loss: requeue the job.
  void mom_job_failed(JobId id);

  /// Allocation policy used for placements.
  void set_allocation_policy(cluster::AllocationPolicy p) { alloc_policy_ = p; }

  /// Enables deferred reclamation of completed jobs: `grace` after a job
  /// completes, its record is destroyed and the id forgotten, keeping
  /// server memory proportional to the live jobs during long streaming
  /// replays. `grace` must exceed every latency-delayed closure that still
  /// looks the job up after completion (the batch layer derives it from
  /// the latency model). Off by default — materialized runs keep every
  /// record so post-run queries (qstat, CSV dumps) see the full history.
  void set_retirement(Duration grace);

  /// The job's chunk size for placements: its ppn, or the node size.
  [[nodiscard]] CoreCount effective_ppn(const Job& job) const;

  // --- durable-state surface (svc::StateStore) ----------------------------
  [[nodiscard]] std::uint64_t next_job_id_raw() const { return next_job_; }
  [[nodiscard]] std::uint64_t next_request_id_raw() const {
    return next_request_;
  }
  void restore_counters(std::uint64_t next_job, std::uint64_t next_request);

  /// Availability hints sorted by job id (byte-stable snapshot encoding).
  [[nodiscard]] std::vector<std::pair<JobId, Time>> save_availability_hints()
      const;
  void restore_availability_hint(JobId id, Time at);

  [[nodiscard]] std::optional<Duration> retirement_grace() const {
    return retire_grace_;
  }

  /// Re-inserts a restored job record. Unlike submit() this neither
  /// notifies observers nor wakes the scheduler: a restore reconstructs a
  /// state every observer had already seen when the snapshot was taken.
  Job& restore_job(std::unique_ptr<Job> job);

  /// Re-enqueues a restored pending dynamic request; FIFO order is the
  /// caller's call order (the snapshot preserves it).
  void restore_dyn_request(const DynRequest& req);

  /// After a restore with retirement enabled: re-arms the deferred
  /// reclamation event of every already-Completed live job at its recorded
  /// end time plus the grace period.
  void rearm_retirements();

 private:
  void notify_scheduler();
  void finalize_reject(const DynRequest& req);
  /// now - submitted of a finally answered dynamic request, into the
  /// "dyn.queue_residency_s" histogram.
  void record_residency(const DynRequest& req);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  LatencyModel latency_;
  MomManager* moms_ = nullptr;
  std::function<void()> trigger_;
  bool trigger_pending_ = false;
  std::vector<ServerObserver*> observers_;
  JobQueue queue_;
  std::uint64_t next_job_ = 0;
  std::uint64_t next_request_ = 0;
  cluster::AllocationPolicy alloc_policy_ = cluster::AllocationPolicy::Pack;
  std::optional<Duration> retire_grace_;
  std::unordered_map<JobId, Time> availability_hints_;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_;  ///< never null; defaults to the global one
  /// Per-event instruments in registry_, reset by set_sinks.
  struct Instruments {
    obs::CounterSlot jobs_submitted{"server.jobs_submitted"};
    obs::CounterSlot jobs_started{"server.jobs_started"};
    obs::CounterSlot jobs_finished{"server.jobs_finished"};
    obs::CounterSlot preemptions{"server.preemptions"};
    obs::CounterSlot malleable_shrinks{"server.malleable_shrinks"};
    obs::CounterSlot node_failures{"server.node_failures"};
    obs::CounterSlot dyn_requests{"dyn.requests"};
    obs::CounterSlot dyn_grants{"dyn.grants"};
    obs::CounterSlot dyn_defers{"dyn.defers"};
    obs::CounterSlot dyn_rejects{"dyn.rejects"};
    obs::CounterSlot dyn_releases{"dyn.releases"};
    obs::Histogram* queue_residency = nullptr;  ///< null == not yet resolved
  };
  Instruments instruments_;
  /// Flight recorder currently registered in observers_ via set_sinks.
  obs::rec::FlightRecorder* recorder_ = nullptr;
};

}  // namespace dbs::rms

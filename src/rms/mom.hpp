// The pbs_mom analogue. One MomManager drives all per-node mom daemons and
// the mother-superior role of each job: it performs join / dyn_join /
// dyn_disjoin operations (costing virtual time), runs the Application state
// machine, and forwards tm_dynget / tm_dynfree to the server.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/allocation_policy.hpp"
#include "common/types.hpp"
#include "obs/registry.hpp"
#include "rms/application.hpp"
#include "rms/comm.hpp"
#include "sim/simulator.hpp"

namespace dbs::obs {
class Tracer;
struct Sinks;
}

namespace dbs::rms {

class Server;
class Job;

class MomManager {
 public:
  MomManager(sim::Simulator& simulator, Server& server, LatencyModel latency);

  MomManager(const MomManager&) = delete;
  MomManager& operator=(const MomManager&) = delete;

  // --- server-facing -------------------------------------------------------
  /// Dispatches a freshly started job: sister moms join, then the
  /// application starts.
  void launch(const Job& job);

  /// Delivers a successful tm_dynget: dyn_join over the new nodes, then the
  /// application's on_grant runs.
  void deliver_grant(const Job& job, const cluster::Placement& extra);

  /// Delivers a final tm_dynget rejection.
  void deliver_reject(const Job& job);

  /// Informs the application of a scheduler-initiated malleable shrink
  /// (the job record already reflects the reduced allocation).
  void deliver_reshape(const Job& job);

  /// Informs the application that a node failure removed `lost_cores` from
  /// its allocation. The application either survives (new decision, often
  /// with an immediate spare-node request) or the job is reported failed
  /// back to the server for requeueing.
  void deliver_node_loss(const Job& job, CoreCount lost_cores);

  /// Kills a job's processes (preemption / qdel): all pending application
  /// events are cancelled.
  void kill(JobId id);

  /// Number of jobs with live application state.
  [[nodiscard]] std::size_t active_jobs() const { return running_.size(); }

  /// Serializable per-job mom runtime for durable snapshots, sorted by job
  /// id. Valid only at a quiescent point of a zero-latency system: every
  /// protocol cascade (join, hop, disjoin) has drained, so the remaining
  /// pending events are exactly the completion plus the not-yet-fired
  /// ask/release descriptors captured here.
  struct RuntimeState {
    JobId job;
    CoreCount cores = 0;
    Time finish_at;
    bool has_ask = false;
    DynAsk ask;
    int ask_attempt = 0;
    bool has_release = false;
    DynRelease release;

    [[nodiscard]] bool operator==(const RuntimeState&) const = default;
  };
  [[nodiscard]] std::vector<RuntimeState> save_state() const;
  /// Re-creates the runtime of a restored running job and re-arms its
  /// events at their recorded absolute times (all >= the restored clock).
  void restore_runtime(const RuntimeState& rs);

  /// Observability sinks: the tracer (nullable) receives join / dyn_join /
  /// dyn_disjoin protocol trace events; protocol-step counters land in the
  /// registry (null selects the global one).
  void set_sinks(const obs::Sinks& sinks);

 private:
  struct JobRuntime {
    CoreCount cores = 0;
    EventId completion = EventId::invalid();
    EventId next_ask = EventId::invalid();
    EventId next_release = EventId::invalid();
    std::uint64_t generation = 0;  ///< invalidates in-flight events
    // Snapshot descriptors mirroring the armed events; each is cleared the
    // moment its event fires so a restore never double-arms one.
    Time finish_at = Time::far_future();
    std::optional<DynAsk> pending_ask;
    int ask_attempt = 0;
    std::optional<DynRelease> pending_release;
  };

  /// Installs a fresh AppDecision: (re)schedules completion, the next
  /// tm_dynget and the next tm_dynfree.
  void apply_decision(JobId id, const AppDecision& decision);
  void cancel_events(JobRuntime& rt);
  // Event-arming primitives shared by apply_decision and restore_runtime;
  // each records the matching snapshot descriptor on `rt`.
  void arm_completion(JobRuntime& rt, JobId id, Time finish_at);
  void arm_ask(JobRuntime& rt, JobId id, const DynAsk& ask, int attempt);
  void arm_release(JobRuntime& rt, JobId id, const DynRelease& rel);
  /// Picks which of the job's node shares to give back for a release of
  /// `cores` cores (vacates the fullest shares last, freeing whole nodes
  /// where possible).
  [[nodiscard]] cluster::Placement choose_release(const Job& job,
                                                  CoreCount cores) const;

  sim::Simulator& sim_;
  Server& server_;
  LatencyModel latency_;
  std::unordered_map<JobId, JobRuntime> running_;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_;  ///< never null; defaults to the global one
  /// Per-event counters in registry_, reset by set_sinks.
  struct Instruments {
    obs::CounterSlot joins{"mom.joins"};
    obs::CounterSlot dyn_joins{"mom.dyn_joins"};
    obs::CounterSlot dyn_disjoins{"mom.dyn_disjoins"};
  };
  Instruments instruments_;
};

}  // namespace dbs::rms

#include "rms/server.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"
#include "rms/mom.hpp"

namespace dbs::rms {

namespace {
/// Residency buckets: sub-second answers up to hour-long negotiations.
std::vector<double> residency_bounds() {
  return {0.1, 1, 5, 15, 30, 60, 120, 300, 600, 1800, 3600};
}
}  // namespace

Server::Server(sim::Simulator& simulator, cluster::Cluster& cluster,
               LatencyModel latency)
    : sim_(simulator),
      cluster_(cluster),
      latency_(latency),
      registry_(&obs::Registry::global()) {
  latency_.validate();
}

void Server::set_sinks(const obs::Sinks& sinks) {
  tracer_ = sinks.tracer;
  registry_ = &sinks.registry_or_global();
  instruments_ = Instruments{};
  if (recorder_ != sinks.recorder) {
    // The recorder listens like any other observer; swapping sinks must
    // not leave a stale registration behind.
    if (recorder_ != nullptr)
      observers_.erase(
          std::remove(observers_.begin(), observers_.end(),
                      static_cast<ServerObserver*>(recorder_)),
          observers_.end());
    recorder_ = sinks.recorder;
    if (recorder_ != nullptr) add_observer(recorder_);
  }
}

void Server::record_residency(const DynRequest& req) {
  if (instruments_.queue_residency == nullptr)
    instruments_.queue_residency =
        &registry_->histogram("dyn.queue_residency_s", residency_bounds());
  instruments_.queue_residency->observe(
      (sim_.now() - req.submitted).as_seconds());
}

void Server::set_scheduler_trigger(std::function<void()> trigger) {
  trigger_ = std::move(trigger);
}

void Server::add_observer(ServerObserver* observer) {
  DBS_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

void Server::remove_observer(ServerObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

CoreCount Server::effective_ppn(const Job& job) const {
  const CoreCount ppn = job.spec().ppn;
  DBS_REQUIRE(ppn >= 0 && ppn <= cluster_.cores_per_node(),
              "ppn exceeds node size");
  return ppn == 0 ? cluster_.cores_per_node() : ppn;
}

void Server::notify_scheduler() {
  if (!trigger_ || trigger_pending_) return;
  trigger_pending_ = true;
  sim_.schedule_after(latency_.scheduler_delay, [this] {
    trigger_pending_ = false;
    trigger_();
  });
}

JobId Server::submit(JobSpec spec, std::unique_ptr<Application> app) {
  const JobId id{next_job_++};
  Job& job = queue_.add(
      std::make_unique<Job>(id, std::move(spec), std::move(app), sim_.now()));
  DBS_TRACE("submit " << id.value() << " (" << job.spec().name << ") at "
                      << sim_.now());
  instruments_.jobs_submitted.add(*registry_);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "submit")
                               .field("job", id.value())
                               .field("job_name", job.spec().name)
                               .field("user", job.spec().cred.user)
                               .field("cores", job.spec().cores)
                               .field("walltime_s",
                                      job.spec().walltime.as_seconds()));
  for (auto* o : observers_) o->on_submit(job);
  notify_scheduler();
  return id;
}

bool Server::cancel(JobId id) {
  if (!queue_.contains(id)) return false;
  Job& job = queue_.at(id);
  if (job.finished()) return false;
  CoreCount released = 0;
  if (job.is_running()) {
    released = job.allocated_cores();
    if (const DynRequest* r = queue_.dyn_request_of(id))
      queue_.remove_dyn_request(r->id);
    moms_->kill(id);
    cluster_.release_all(id);
  }
  job.mark_cancelled(sim_.now());
  for (auto* o : observers_) o->on_cancel(job, released);
  notify_scheduler();
  return true;
}

bool Server::start_job(JobId id, bool backfilled) {
  DBS_REQUIRE(moms_ != nullptr, "moms not wired");
  Job& job = queue_.at(id);
  DBS_REQUIRE(job.state() == JobState::Queued, "start_job needs a queued job");
  auto placement = cluster_.allocate_chunked(id, job.spec().cores,
                                             effective_ppn(job), alloc_policy_);
  if (!placement) return false;
  job.mark_started(sim_.now(), std::move(*placement), backfilled);
  DBS_TRACE("start " << id.value() << " (" << job.spec().name << ") on "
                     << job.placement().node_count() << " nodes at "
                     << sim_.now() << (backfilled ? " [backfill]" : ""));
  instruments_.jobs_started.add(*registry_);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "job_start")
                               .field("job", id.value())
                               .field("cores", job.allocated_cores())
                               .field("nodes", job.placement().node_count())
                               .field("backfilled", backfilled)
                               .field("wait_s", (sim_.now() - job.submit_time())
                                                    .as_seconds()));
  for (auto* o : observers_) o->on_job_start(job);
  moms_->launch(job);
  return true;
}

bool Server::grant_dyn(RequestId req_id) {
  DBS_REQUIRE(moms_ != nullptr, "moms not wired");
  const DynRequest* req = nullptr;
  for (const auto& r : queue_.dyn_requests())
    if (r.id == req_id) req = &r;
  DBS_REQUIRE(req != nullptr, "unknown dynamic request");
  Job& job = queue_.at(req->job);
  DBS_REQUIRE(job.state() == JobState::DynQueued,
              "grant requires a dynqueued job");

  auto extra = cluster_.allocate_chunked(job.id(), req->extra_cores,
                                         effective_ppn(job), alloc_policy_);
  if (!extra) return false;

  const DynRequest done = *req;  // copy before removal invalidates req
  queue_.remove_dyn_request(req_id);
  availability_hints_.erase(job.id());
  job.expand(*extra);
  job.mark_running_again();
  job.count_dyn_grant();
  DBS_TRACE("grant +" << done.extra_cores << " cores to job "
                      << job.id().value() << " at " << sim_.now());
  instruments_.dyn_grants.add(*registry_);
  record_residency(done);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "dyn_grant")
                               .field("job", job.id().value())
                               .field("request", done.id.value())
                               .field("extra_cores", done.extra_cores)
                               .field("attempt", done.attempt)
                               .field("residency_s",
                                      (sim_.now() - done.submitted)
                                          .as_seconds()));
  for (auto* o : observers_) o->on_dyn_grant(job, done, done.extra_cores);
  moms_->deliver_grant(job, *extra);
  return true;
}

void Server::reject_dyn(RequestId req_id, std::optional<Time> availability_hint) {
  const DynRequest* req = nullptr;
  for (const auto& r : queue_.dyn_requests())
    if (r.id == req_id) req = &r;
  DBS_REQUIRE(req != nullptr, "unknown dynamic request");

  if (sim_.now() < req->deadline) {
    // Negotiation extension: the request stays queued; remember when the
    // scheduler believes resources could be available.
    if (availability_hint) availability_hints_[req->job] = *availability_hint;
    instruments_.dyn_defers.add(*registry_);
    DBS_TRACE_EVENT(
        tracer_, obs::TraceEvent(sim_.now(), "rms", "dyn_defer")
                     .field("job", req->job.value())
                     .field("request", req->id.value())
                     .field("deadline_us", req->deadline.as_micros())
                     .field("hint_us", availability_hint
                                           ? availability_hint->as_micros()
                                           : std::int64_t{-1}));
    return;
  }
  finalize_reject(*req);
}

void Server::finalize_reject(const DynRequest& req) {
  DBS_REQUIRE(moms_ != nullptr, "moms not wired");
  const DynRequest done = req;
  Job& job = queue_.at(done.job);
  queue_.remove_dyn_request(done.id);
  availability_hints_.erase(job.id());
  job.mark_running_again();
  job.count_dyn_reject();
  DBS_TRACE("reject +" << done.extra_cores << " cores for job "
                       << job.id().value() << " at " << sim_.now());
  instruments_.dyn_rejects.add(*registry_);
  record_residency(done);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "dyn_reject")
                               .field("job", job.id().value())
                               .field("request", done.id.value())
                               .field("extra_cores", done.extra_cores)
                               .field("attempt", done.attempt)
                               .field("residency_s",
                                      (sim_.now() - done.submitted)
                                          .as_seconds()));
  for (auto* o : observers_) o->on_dyn_reject(job, done);
  moms_->deliver_reject(job);
}

void Server::preempt(JobId id) {
  DBS_REQUIRE(moms_ != nullptr, "moms not wired");
  Job& job = queue_.at(id);
  DBS_REQUIRE(job.is_running(), "preempt requires a running job");
  DBS_REQUIRE(job.spec().preemptible, "job is not preemptible");
  if (const DynRequest* r = queue_.dyn_request_of(id))
    queue_.remove_dyn_request(r->id);
  moms_->kill(id);
  cluster_.release_all(id);
  if (job.state() == JobState::DynQueued) job.mark_running_again();
  job.mark_requeued();
  instruments_.preemptions.add(*registry_);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "preempt")
                               .field("job", id.value()));
  for (auto* o : observers_) o->on_requeue(job);
  notify_scheduler();
}

std::optional<Time> Server::availability_hint(JobId id) const {
  auto it = availability_hints_.find(id);
  if (it == availability_hints_.end()) return std::nullopt;
  return it->second;
}

void Server::mom_dyn_request(JobId id, CoreCount extra_cores, Duration timeout,
                             int attempt) {
  Job& job = queue_.at(id);
  DBS_REQUIRE(job.state() == JobState::Running,
              "dynamic request requires a running job");
  DBS_REQUIRE(extra_cores > 0, "dynamic request must ask for cores");
  job.mark_dynqueued();
  job.count_dyn_request();
  const DynRequest req{RequestId{next_request_++}, id, extra_cores, sim_.now(),
                       attempt, sim_.now() + timeout};
  queue_.push_dyn_request(req);
  DBS_TRACE("dynget +" << extra_cores << " cores from job " << id.value()
                       << " (attempt " << attempt << ") at " << sim_.now());
  instruments_.dyn_requests.add(*registry_);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "dyn_request")
                               .field("job", id.value())
                               .field("request", req.id.value())
                               .field("extra_cores", extra_cores)
                               .field("attempt", attempt)
                               .field("timeout_s", timeout.as_seconds()));
  for (auto* o : observers_) o->on_dyn_request(job, req);
  notify_scheduler();
}

void Server::mom_job_finished(JobId id) {
  Job& job = queue_.at(id);
  if (job.finished()) return;  // lost the race against qdel
  if (const DynRequest* r = queue_.dyn_request_of(id)) {
    // The job finished while its last request was still queued.
    queue_.remove_dyn_request(r->id);
    job.mark_running_again();
  }
  cluster_.release_all(id);
  job.mark_completed(sim_.now());
  DBS_TRACE("finish " << id.value() << " (" << job.spec().name << ") at "
                      << sim_.now());
  instruments_.jobs_finished.add(*registry_);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "job_finish")
                               .field("job", id.value())
                               .field("turnaround_s",
                                      (sim_.now() - job.submit_time())
                                          .as_seconds()));
  for (auto* o : observers_) o->on_job_finish(job);
  notify_scheduler();
  if (retire_grace_) {
    // Deferred reclamation: by now every observer has folded the record
    // into its metrics; the grace period covers the application's still
    // in-flight latency-delayed closures (which look the job up by id).
    sim_.schedule_after(*retire_grace_, [this, id] {
      if (!queue_.contains(id)) return;
      if (queue_.at(id).state() != JobState::Completed) return;
      availability_hints_.erase(id);
      queue_.retire(id);
    });
  }
}

void Server::set_retirement(Duration grace) {
  DBS_REQUIRE(grace > Duration::zero(), "retirement grace must be positive");
  retire_grace_ = grace;
}

void Server::shrink_job(JobId id, CoreCount cores) {
  DBS_REQUIRE(moms_ != nullptr, "moms not wired");
  Job& job = queue_.at(id);
  DBS_REQUIRE(job.is_running(), "shrink requires a running job");
  DBS_REQUIRE(job.spec().malleable(), "job is not malleable");
  DBS_REQUIRE(cores > 0 &&
                  job.allocated_cores() - cores >= job.spec().malleable_min,
              "shrink below the malleable minimum");
  const cluster::Placement freed = job.placement().select_release(cores);
  cluster_.release(id, freed);
  job.shrink(freed);
  DBS_TRACE("malleable shrink -" << cores << " cores of job " << id.value()
                                 << " at " << sim_.now());
  instruments_.malleable_shrinks.add(*registry_);
  DBS_TRACE_EVENT(tracer_,
                  obs::TraceEvent(sim_.now(), "rms", "malleable_shrink")
                      .field("job", id.value())
                      .field("cores", cores)
                      .field("remaining", job.allocated_cores()));
  for (auto* o : observers_) o->on_malleable_shrink(job, cores);
  moms_->deliver_reshape(job);
}

void Server::node_failure(NodeId node_id) {
  DBS_REQUIRE(moms_ != nullptr, "moms not wired");
  cluster::Node& node = cluster_.node(node_id);
  DBS_REQUIRE(node.state() == cluster::NodeState::Up, "node already down");

  // Collect the victims before mutating anything. The node's own hold map
  // has exactly the affected jobs, so this no longer scans every running
  // job; sorting by id restores the deterministic submission order the
  // running-jobs scan used to provide.
  std::vector<std::pair<JobId, CoreCount>> victims(node.held().begin(),
                                                   node.held().end());
  std::sort(victims.begin(), victims.end());

  node.set_state(cluster::NodeState::Down);
  for (const auto& [id, lost] : victims) {
    Job& job = queue_.at(id);
    // A pending dynamic request is superseded by the failure.
    if (const DynRequest* r = queue_.dyn_request_of(id)) {
      queue_.remove_dyn_request(r->id);
      job.mark_running_again();
    }
    node.release(id, lost);
    if (job.allocated_cores() == lost) {
      // Whole allocation on the failed node: restart from scratch.
      moms_->kill(id);
      cluster_.release_all(id);
      job.mark_requeued();
      for (auto* o : observers_) o->on_requeue(job);
      continue;
    }
    job.shrink(cluster::Placement{{{node_id, lost}}});
    for (auto* o : observers_) o->on_nodes_lost(job, lost);
    moms_->deliver_node_loss(job, lost);
  }
  DBS_TRACE("node " << node_id.value() << " failed, " << victims.size()
                    << " jobs affected");
  instruments_.node_failures.add(*registry_);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "node_failure")
                               .field("node", node_id.value())
                               .field("jobs_affected", victims.size()));
  notify_scheduler();
}

void Server::restore_node(NodeId node_id) {
  cluster_.node(node_id).set_state(cluster::NodeState::Up);
  notify_scheduler();
}

void Server::mom_job_failed(JobId id) {
  Job& job = queue_.at(id);
  if (job.finished() || job.state() == JobState::Queued) return;
  moms_->kill(id);
  cluster_.release_all(id);
  if (job.state() == JobState::DynQueued) {
    if (const DynRequest* r = queue_.dyn_request_of(id))
      queue_.remove_dyn_request(r->id);
    job.mark_running_again();
  }
  job.mark_requeued();
  for (auto* o : observers_) o->on_requeue(job);
  notify_scheduler();
}

void Server::restore_counters(std::uint64_t next_job,
                              std::uint64_t next_request) {
  DBS_REQUIRE(next_job >= next_job_ && next_request >= next_request_,
              "restored id counters may not run backwards");
  next_job_ = next_job;
  next_request_ = next_request;
}

std::vector<std::pair<JobId, Time>> Server::save_availability_hints() const {
  std::vector<std::pair<JobId, Time>> out(availability_hints_.begin(),
                                          availability_hints_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void Server::restore_availability_hint(JobId id, Time at) {
  availability_hints_[id] = at;
}

Job& Server::restore_job(std::unique_ptr<Job> job) {
  return queue_.add(std::move(job));
}

void Server::restore_dyn_request(const DynRequest& req) {
  DBS_REQUIRE(queue_.contains(req.job), "dynamic request for an unknown job");
  queue_.push_dyn_request(req);
}

void Server::rearm_retirements() {
  if (!retire_grace_) return;
  for (const Job* job : queue_.all()) {
    if (job->state() != JobState::Completed) continue;
    const JobId id = job->id();
    Time at = job->end_time() + *retire_grace_;
    if (at < sim_.now()) at = sim_.now();
    sim_.schedule_at(at, [this, id] {
      if (!queue_.contains(id)) return;
      if (queue_.at(id).state() != JobState::Completed) return;
      availability_hints_.erase(id);
      queue_.retire(id);
    });
  }
}

void Server::mom_dyn_release(JobId id, const cluster::Placement& freed) {
  Job& job = queue_.at(id);
  DBS_REQUIRE(job.is_running(), "release requires a running job");
  cluster_.release(id, freed);
  job.shrink(freed);
  instruments_.dyn_releases.add(*registry_);
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "rms", "dyn_release")
                               .field("job", id.value())
                               .field("cores", freed.total_cores())
                               .field("remaining", job.allocated_cores()));
  for (auto* o : observers_) o->on_dyn_release(job, freed.total_cores());
  notify_scheduler();
}

}  // namespace dbs::rms

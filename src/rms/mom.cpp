#include "rms/mom.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"
#include "rms/job.hpp"
#include "rms/server.hpp"

namespace dbs::rms {

MomManager::MomManager(sim::Simulator& simulator, Server& server,
                       LatencyModel latency)
    : sim_(simulator),
      server_(server),
      latency_(latency),
      registry_(&obs::Registry::global()) {
  latency_.validate();
}

void MomManager::set_sinks(const obs::Sinks& sinks) {
  tracer_ = sinks.tracer;
  registry_ = &sinks.registry_or_global();
  instruments_ = Instruments{};
}

void MomManager::launch(const Job& job) {
  const JobId id = job.id();
  DBS_REQUIRE(!running_.contains(id), "job already launched");
  JobRuntime rt;
  rt.cores = job.allocated_cores();
  running_.emplace(id, rt);
  const std::uint64_t gen = running_.at(id).generation;

  const std::size_t nodes = job.placement().node_count();
  const Duration delay =
      latency_.server_to_mom + latency_.join(nodes);
  sim_.schedule_after(delay, [this, id, gen, nodes] {
    auto it = running_.find(id);
    if (it == running_.end() || it->second.generation != gen) return;
    instruments_.joins.add(*registry_);
    DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "mom", "join")
                                 .field("job", id.value())
                                 .field("nodes", nodes));
    const AppDecision d =
        server_.job(id).app().on_start(sim_.now(), it->second.cores);
    apply_decision(id, d);
  });
}

void MomManager::deliver_grant(const Job& job, const cluster::Placement& extra) {
  const JobId id = job.id();
  const std::size_t nodes = extra.node_count();
  const CoreCount extra_cores = extra.total_cores();
  const Duration delay =
      latency_.server_to_mom + latency_.dyn_join(nodes);
  sim_.schedule_after(delay, [this, id, nodes, extra_cores] {
    auto it = running_.find(id);
    if (it == running_.end()) return;  // job finished meanwhile
    it->second.cores = server_.job(id).allocated_cores();
    instruments_.dyn_joins.add(*registry_);
    DBS_TRACE_EVENT(tracer_, obs::TraceEvent(sim_.now(), "mom", "dyn_join")
                                 .field("job", id.value())
                                 .field("nodes", nodes)
                                 .field("extra_cores", extra_cores)
                                 .field("cores", it->second.cores));
    const AppDecision d =
        server_.job(id).app().on_grant(sim_.now(), it->second.cores);
    apply_decision(id, d);
  });
}

void MomManager::deliver_reject(const Job& job) {
  const JobId id = job.id();
  sim_.schedule_after(latency_.server_to_mom, [this, id] {
    auto it = running_.find(id);
    if (it == running_.end()) return;
    const AppDecision d =
        server_.job(id).app().on_reject(sim_.now(), it->second.cores);
    apply_decision(id, d);
  });
}

void MomManager::deliver_node_loss(const Job& job, CoreCount lost_cores) {
  const JobId id = job.id();
  DBS_REQUIRE(lost_cores > 0, "node loss must remove cores");
  sim_.schedule_after(latency_.server_to_mom, [this, id, lost_cores] {
    auto it = running_.find(id);
    if (it == running_.end()) return;
    it->second.cores = server_.job(id).allocated_cores();
    const std::optional<AppDecision> d = server_.job(id).app().on_nodes_lost(
        sim_.now(), lost_cores, it->second.cores);
    if (d.has_value()) {
      apply_decision(id, *d);
      return;
    }
    // The application dies with its processes; report the failure.
    cancel_events(it->second);
    running_.erase(it);
    sim_.schedule_after(latency_.mom_to_server,
                        [this, id] { server_.mom_job_failed(id); });
  });
}

void MomManager::kill(JobId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  cancel_events(it->second);
  running_.erase(it);
}

void MomManager::cancel_events(JobRuntime& rt) {
  if (rt.completion.valid()) sim_.cancel(rt.completion);
  if (rt.next_ask.valid()) sim_.cancel(rt.next_ask);
  if (rt.next_release.valid()) sim_.cancel(rt.next_release);
  rt.completion = rt.next_ask = rt.next_release = EventId::invalid();
  rt.finish_at = Time::far_future();
  rt.pending_ask.reset();
  rt.ask_attempt = 0;
  rt.pending_release.reset();
  ++rt.generation;
}

void MomManager::arm_completion(JobRuntime& rt, JobId id, Time finish_at) {
  const std::uint64_t gen = rt.generation;
  rt.finish_at = finish_at;
  rt.completion = sim_.schedule_at(finish_at, [this, id, gen] {
    auto jt = running_.find(id);
    if (jt == running_.end() || jt->second.generation != gen) return;
    running_.erase(jt);
    sim_.schedule_after(latency_.mom_to_server,
                        [this, id] { server_.mom_job_finished(id); });
  });
}

void MomManager::arm_ask(JobRuntime& rt, JobId id, const DynAsk& ask,
                         int attempt) {
  const std::uint64_t gen = rt.generation;
  rt.pending_ask = ask;
  rt.ask_attempt = attempt;
  rt.next_ask = sim_.schedule_at(ask.at, [this, id, gen, ask, attempt] {
    auto jt = running_.find(id);
    if (jt == running_.end() || jt->second.generation != gen) return;
    jt->second.pending_ask.reset();
    jt->second.ask_attempt = 0;
    sim_.schedule_after(latency_.mom_to_server, [this, id, ask, attempt] {
      if (!running_.contains(id)) return;
      server_.mom_dyn_request(id, ask.extra_cores, ask.timeout, attempt);
    });
  });
}

void MomManager::arm_release(JobRuntime& rt, JobId id, const DynRelease& rel) {
  const std::uint64_t gen = rt.generation;
  rt.pending_release = rel;
  rt.next_release = sim_.schedule_at(rel.at, [this, id, gen, rel] {
    auto jt = running_.find(id);
    if (jt == running_.end() || jt->second.generation != gen) return;
    jt->second.pending_release.reset();
    const cluster::Placement freed = choose_release(server_.job(id), rel.cores);
    // dyn_disjoin across the vacated nodes, then inform the server and
    // finally the application.
    const Duration disjoin = latency_.dyn_join(freed.node_count());
    sim_.schedule_after(disjoin + latency_.mom_to_server, [this, id, freed] {
      if (!running_.contains(id)) return;
      instruments_.dyn_disjoins.add(*registry_);
      DBS_TRACE_EVENT(tracer_,
                      obs::TraceEvent(sim_.now(), "mom", "dyn_disjoin")
                          .field("job", id.value())
                          .field("nodes", freed.node_count())
                          .field("freed_cores", freed.total_cores()));
      server_.mom_dyn_release(id, freed);
      sim_.schedule_after(latency_.server_to_mom, [this, id] {
        auto kt = running_.find(id);
        if (kt == running_.end()) return;
        kt->second.cores = server_.job(id).allocated_cores();
        const AppDecision d =
            server_.job(id).app().on_released(sim_.now(), kt->second.cores);
        apply_decision(id, d);
      });
    });
  });
}

void MomManager::apply_decision(JobId id, const AppDecision& decision) {
  auto it = running_.find(id);
  DBS_REQUIRE(it != running_.end(), "decision for a dead job");
  JobRuntime& rt = it->second;
  DBS_REQUIRE(decision.finish_at >= sim_.now(),
              "application cannot finish in the past");
  cancel_events(rt);

  arm_completion(rt, id, decision.finish_at);

  if (decision.ask && decision.ask->at < decision.finish_at) {
    const DynAsk ask = *decision.ask;
    DBS_REQUIRE(ask.extra_cores > 0, "ask must request cores");
    DBS_REQUIRE(ask.at >= sim_.now(), "ask cannot be in the past");
    arm_ask(rt, id, ask, server_.job(id).dyn_requests_made() + 1);
  }

  if (decision.release && decision.release->at < decision.finish_at) {
    const DynRelease rel = *decision.release;
    DBS_REQUIRE(rel.cores > 0, "release must give back cores");
    DBS_REQUIRE(rel.at >= sim_.now(), "release cannot be in the past");
    arm_release(rt, id, rel);
  }
}

std::vector<MomManager::RuntimeState> MomManager::save_state() const {
  std::vector<RuntimeState> out;
  out.reserve(running_.size());
  for (const auto& [id, rt] : running_) {
    DBS_REQUIRE(rt.completion.valid() && rt.finish_at != Time::far_future(),
                "snapshot at an unsafe point: job has no applied decision");
    RuntimeState rs;
    rs.job = id;
    rs.cores = rt.cores;
    rs.finish_at = rt.finish_at;
    if (rt.pending_ask.has_value()) {
      rs.has_ask = true;
      rs.ask = *rt.pending_ask;
      rs.ask_attempt = rt.ask_attempt;
    }
    if (rt.pending_release.has_value()) {
      rs.has_release = true;
      rs.release = *rt.pending_release;
    }
    out.push_back(rs);
  }
  std::sort(out.begin(), out.end(),
            [](const RuntimeState& a, const RuntimeState& b) {
              return a.job < b.job;
            });
  return out;
}

void MomManager::restore_runtime(const RuntimeState& rs) {
  DBS_REQUIRE(!running_.contains(rs.job), "job already has a runtime");
  DBS_REQUIRE(rs.finish_at >= sim_.now(), "restored completion in the past");
  JobRuntime rt;
  rt.cores = rs.cores;
  auto [it, inserted] = running_.emplace(rs.job, rt);
  (void)inserted;
  arm_completion(it->second, rs.job, rs.finish_at);
  if (rs.has_ask) arm_ask(it->second, rs.job, rs.ask, rs.ask_attempt);
  if (rs.has_release) arm_release(it->second, rs.job, rs.release);
}

cluster::Placement MomManager::choose_release(const Job& job,
                                              CoreCount cores) const {
  return job.placement().select_release(cores);
}

void MomManager::deliver_reshape(const Job& job) {
  const JobId id = job.id();
  sim_.schedule_after(latency_.server_to_mom, [this, id] {
    auto it = running_.find(id);
    if (it == running_.end()) return;
    it->second.cores = server_.job(id).allocated_cores();
    const AppDecision d =
        server_.job(id).app().on_reshaped(sim_.now(), it->second.cores);
    apply_decision(id, d);
  });
}

}  // namespace dbs::rms

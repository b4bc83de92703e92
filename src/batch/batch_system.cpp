#include "batch/batch_system.hpp"

#include "common/assert.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace dbs::batch {

void BatchSystem::set_sinks(const obs::Sinks& sinks) {
  if (sinks.tracer != nullptr)
    sinks.tracer->set_clock([this] { return sim_.now(); });
  if (sinks.recorder != nullptr)
    sinks.recorder->set_clock([this] { return sim_.now(); });
  tracer_ = sinks.tracer;
  server_.set_sinks(sinks);
  moms_.set_sinks(sinks);
  scheduler_.set_sinks(sinks);
}

BatchSystem::BatchSystem(const SystemConfig& config)
    : config_(config),
      cluster_(config.cluster),
      server_(sim_, cluster_, config.latency),
      moms_(sim_, server_, config.latency),
      recorder_(sim_, cluster_),
      scheduler_(server_, config.scheduler) {
  server_.set_moms(&moms_);
  server_.add_observer(&recorder_);
  if (config.streaming_metrics) recorder_.set_streaming(true);
  if (config.retire_finished_jobs) {
    // The grace period must outlast every latency-delayed closure that can
    // still look a completed job up by id (in-flight mom/server messages,
    // join chains, the coalesced scheduler wake-up). Sum the model's hops
    // with a generous multiplier plus a constant floor — retirement only
    // needs to be prompt relative to a trace's hours-long job lifetimes.
    const rms::LatencyModel& l = config.latency;
    const Duration grace = (l.client_to_server + l.server_to_mom +
                            l.mom_to_server + l.scheduler_delay) *
                               64 +
                           (l.join(cluster_.node_count()) +
                            l.dyn_join(cluster_.node_count())) *
                               4 +
                           Duration::seconds(1);
    server_.set_retirement(grace);
  }
  scheduler_.attach();
}

JobId BatchSystem::submit_now(rms::JobSpec spec,
                              std::unique_ptr<rms::Application> app) {
  return server_.submit(std::move(spec), std::move(app));
}

void BatchSystem::submit_at(
    Time at, rms::JobSpec spec,
    std::function<std::unique_ptr<rms::Application>()> app_factory) {
  DBS_REQUIRE(app_factory != nullptr, "application factory required");
  sim_.schedule_at(at + config_.latency.client_to_server,
                   [this, spec = std::move(spec),
                    factory = std::move(app_factory)]() mutable {
                     server_.submit(std::move(spec), factory());
                   });
}

void BatchSystem::schedule_submission(const wl::SubmitSpec& s) {
  sim_.schedule_submission(
      s.at + config_.latency.client_to_server,
      [this, spec = s.spec, behavior = s.behavior]() mutable {
        server_.submit(std::move(spec),
                       apps::make_application(behavior, config_.speedup));
      });
}

void BatchSystem::submit_workload(const wl::Workload& workload) {
  for (const wl::SubmitSpec& s : workload.jobs) schedule_submission(s);
}

// Each in-flight arrival event carries the pump: when it fires it first
// pulls the next record beyond the window and schedules it, then submits
// its own job. Pulls happen in trace order from a single chain of
// events, so submission-lane sequence numbers stay in trace order and
// the ordering matches the materialized path exactly.
struct BatchSystem::StreamPump {
  wl::SubmissionSource* source = nullptr;
  Time last_at = Time::epoch();
  bool exhausted = false;
};

void BatchSystem::pump_stream(const std::shared_ptr<StreamPump>& pump) {
  if (pump->exhausted) return;
  wl::SubmitSpec s;
  if (!pump->source->next(s)) {
    pump->exhausted = true;
    return;
  }
  DBS_REQUIRE(s.at >= pump->last_at,
              "submission source must yield non-decreasing times");
  pump->last_at = s.at;
  sim_.schedule_submission(
      s.at + config_.latency.client_to_server,
      [this, pump, spec = std::move(s.spec), behavior = s.behavior]() mutable {
        pump_stream(pump);  // refill the window before submitting
        server_.submit(std::move(spec),
                       apps::make_application(behavior, config_.speedup));
      });
}

void BatchSystem::submit_stream(wl::SubmissionSource& source,
                                std::size_t window) {
  DBS_REQUIRE(window > 0, "look-ahead window must be positive");
  auto pump = std::make_shared<StreamPump>();
  pump->source = &source;
  for (std::size_t i = 0; i < window && !pump->exhausted; ++i)
    pump_stream(pump);
}

void BatchSystem::run() {
  sim_.run();
  cluster_.check_invariants();
  // End of simulation: push buffered trace events to disk so a crash in
  // post-run analysis can't lose the tail of the trace. The tracer stays
  // open — the owner may run further simulations before close().
  if (tracer_ != nullptr) tracer_->flush();
}

void BatchSystem::run_until(Time until) {
  sim_.run_until(until);
  cluster_.check_invariants();
}

}  // namespace dbs::batch

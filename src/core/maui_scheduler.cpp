#include "core/maui_scheduler.hpp"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/cycle_timer.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace dbs::core {

namespace {

/// Fixed buckets for the iteration wall-clock histograms (microseconds);
/// shared by the whole-iteration and per-stage distributions.
const std::vector<double>& iteration_us_bounds() {
  static const std::vector<double> bounds{10,    25,    50,     100,   250,
                                          500,   1000,  2500,   5000,  10000,
                                          25000, 50000, 100000, 500000};
  return bounds;
}

}  // namespace

MauiScheduler::MauiScheduler(rms::Server& server, SchedulerConfig config)
    : server_(server),
      config_(std::move(config)),
      fairshare_(config_.fairshare, server.simulator().now()),
      priority_(config_.weights, config_.cred_priorities, &fairshare_),
      dfs_(config_.dfs, server.simulator().now()),
      tracker_(server),
      ctx_(server),
      env_{server, config_, fairshare_, priority_, dfs_, tracker_},
      statistics_(server.simulator().now()),
      stages_{&gather_, &statistics_, &prioritize_,
              &classify_, &admission_, &start_backfill_} {
  config_.validate();
  server_.add_observer(&tracker_);
  server_.set_allocation_policy(config_.allocation_policy);
  ctx_.sinks.registry = &obs::Registry::global();
  // Calibrate the stage timer outside the first iteration's timed window.
  CycleTimer::warm_up();
  tick_to_us_ = CycleTimer::to_micros(1);
}

MauiScheduler::~MauiScheduler() {
  // The tracker dies with the scheduler; the server may outlive it.
  server_.remove_observer(&tracker_);
}

void MauiScheduler::set_sinks(const obs::Sinks& sinks) {
  ctx_.sinks.tracer = sinks.tracer;
  ctx_.sinks.registry = &sinks.registry_or_global();
  ctx_.sinks.recorder = sinks.recorder;
  dfs_.set_sinks(sinks);
  instruments_ = Instruments{};
}

void MauiScheduler::attach() {
  server_.set_scheduler_trigger([this] { iterate(); });
}

void MauiScheduler::advance_cache_base() {
  // With job retirement the server forgets ids below min_live_id; the
  // dense per-id caches can shed those slots. The floor is the minimum
  // over ALL live jobs (queued, running or finished-but-not-yet-retired),
  // so a preempted job requeued under its old id can never fall below it.
  const std::uint64_t floor = server_.jobs().min_live_id();
  ctx_.priority_cache.advance_base(floor);
  ctx_.classify_cache.advance_base(floor);
  ctx_.start_cache.advance_base(floor);
}

void MauiScheduler::run_pipeline() {
  if (!config_.stage_timing) {
    for (Stage* stage : stages_) stage->run(env_, ctx_);
    return;
  }
  // TSC spans, not steady_clock: even so, seven clock reads per iteration
  // are measurable next to sub-microsecond iterations, which is why the
  // whole breakdown sits behind config_.stage_timing. Raw tick deltas are
  // recorded in the loop; the µs conversion (a bare multiply with the
  // ratio calibrated at construction) happens after the last span.
  std::array<std::uint64_t, kStageCount> ticks;
  std::uint64_t span_begin = CycleTimer::now();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    stages_[i]->run(env_, ctx_);
    const std::uint64_t span_end = CycleTimer::now();
    ticks[i] = span_end - span_begin;
    span_begin = span_end;
  }
  for (std::size_t i = 0; i < kStageCount; ++i)
    ctx_.stats.stage_wall_us[i] = static_cast<double>(ticks[i]) * tick_to_us_;
}

void MauiScheduler::iterate() {
  const Time now = server_.simulator().now();
  const auto wall_begin = std::chrono::steady_clock::now();
  ++iterations_;
  ctx_.begin_iteration(now, iterations_, /*dry_run=*/false);
  advance_cache_base();

  DBS_TRACE_EVENT(ctx_.sinks.tracer,
                  obs::TraceEvent(now, "sched", "iteration_begin")
                      .field("iteration", iterations_)
                      .field("queued", server_.jobs().queued().size())
                      .field("running", server_.jobs().running().size())
                      .field("dyn_requests", server_.jobs().dyn_requests().size())
                      .field("free_cores", server_.cluster().free_cores()));

  run_pipeline();

  // Applied iterations feed the flight recorder; dry runs never do (they
  // would duplicate the stream the next live iteration records).
  if (ctx_.sinks.recorder != nullptr && !ctx_.applier.decisions().empty())
    ctx_.sinks.recorder->record_decisions(now, iterations_,
                                          ctx_.applier.decisions());

  const auto wall_end = std::chrono::steady_clock::now();
  IterationStats& stats = ctx_.stats;
  stats.wall_us =
      std::chrono::duration<double, std::micro>(wall_end - wall_begin).count();
  stats.replanned_jobs =
      ctx_.classify_cache.replanned + ctx_.start_cache.replanned;
  stats.cache_hits = ctx_.classify_cache.hits + ctx_.start_cache.hits;

  if (obs::Tracer* tracer = ctx_.sinks.tracer;
      tracer != nullptr && tracer->enabled()) {
    obs::TraceEvent ev(now, "sched", "iteration");
    ev.field("iteration", iterations_)
        .field("eligible_static", stats.eligible_static)
        .field("eligible_dynamic", stats.eligible_dynamic)
        .field("started", stats.started)
        .field("backfilled", stats.backfilled)
        .field("reservations", stats.reservations)
        .field("dyn_granted", stats.dyn_granted)
        .field("dyn_rejected", stats.dyn_rejected)
        .field("dyn_deferred", stats.dyn_deferred)
        .field("preempted", stats.preempted)
        .field("start_failed", stats.start_failed)
        .field("replanned_jobs", stats.replanned_jobs)
        .field("cache_hits", stats.cache_hits)
        .field("wall_us", stats.wall_us);
    if (config_.stage_timing) {
      for (std::size_t i = 0; i < kStageCount; ++i)
        ev.field(std::string("wall_us_") + std::string(stage_names()[i]),
                 stats.stage_wall_us[i]);
    }
    tracer->emit(ev);
  }

  record_iteration(stats);
  last_ = stats;
  schedule_poll();
}

std::vector<rms::Decision> MauiScheduler::dry_run_iteration() {
  // Same pipeline, applier in dry-run: nothing is applied, no DFS budget is
  // consumed, no iteration is recorded and the poll timer is untouched.
  // Within the pass, decisions still build on each other (a dry grant
  // shifts what later requests are measured against), so the stream is a
  // coherent what-if of the next live iteration.
  ctx_.begin_iteration(server_.simulator().now(), iterations_ + 1,
                       /*dry_run=*/true);
  advance_cache_base();
  run_pipeline();
  return ctx_.applier.decisions();
}

void MauiScheduler::record_iteration(const IterationStats& stats) {
  history_.push(stats);

  // Resolve instrument handles once per sink change; every iteration after
  // that is bare pointer updates. The per-stage histogram names
  // deliberately contain "iteration_us": like the whole-iteration
  // histogram they record host time, and every determinism filter that
  // strips host-dependent metrics by that needle covers them too.
  if (instruments_.iterations == nullptr) {
    obs::Registry& registry = *ctx_.sinks.registry;
    instruments_.iterations = &registry.counter("scheduler.iterations");
    instruments_.started = &registry.counter("scheduler.started");
    instruments_.backfilled = &registry.counter("scheduler.backfilled");
    instruments_.start_failed = &registry.counter("scheduler.start_failed");
    instruments_.dyn_granted = &registry.counter("scheduler.dyn_granted");
    instruments_.dyn_rejected = &registry.counter("scheduler.dyn_rejected");
    instruments_.dyn_deferred = &registry.counter("scheduler.dyn_deferred");
    instruments_.preemptions = &registry.counter("scheduler.preemptions");
    instruments_.malleable_shrinks =
        &registry.counter("scheduler.malleable_shrinks");
    instruments_.replanned_jobs =
        &registry.counter("scheduler.replanned_jobs");
    instruments_.plan_cache_hits =
        &registry.counter("scheduler.plan_cache_hits");
    instruments_.iteration_us =
        &registry.histogram("scheduler.iteration_us", iteration_us_bounds());
    if (config_.stage_timing)
      for (std::size_t i = 0; i < kStageCount; ++i)
        instruments_.stage_us[i] = &registry.histogram(
            std::string("scheduler.stage_iteration_us.") +
                std::string(stage_names()[i]),
            iteration_us_bounds());
    instruments_.queue_length = &registry.gauge("scheduler.queue_length");
    instruments_.dyn_queue_length =
        &registry.gauge("scheduler.dyn_queue_length");
    instruments_.free_cores = &registry.gauge("cluster.free_cores");
  }

  instruments_.iterations->add();
  instruments_.started->add(stats.started);
  instruments_.backfilled->add(stats.backfilled);
  instruments_.start_failed->add(stats.start_failed);
  instruments_.dyn_granted->add(stats.dyn_granted);
  instruments_.dyn_rejected->add(stats.dyn_rejected);
  instruments_.dyn_deferred->add(stats.dyn_deferred);
  instruments_.preemptions->add(stats.preempted);
  instruments_.malleable_shrinks->add(stats.malleable_shrinks);
  instruments_.replanned_jobs->add(stats.replanned_jobs);
  instruments_.plan_cache_hits->add(stats.cache_hits);
  instruments_.iteration_us->observe(stats.wall_us);
  if (config_.stage_timing)
    for (std::size_t i = 0; i < kStageCount; ++i)
      instruments_.stage_us[i]->observe(stats.stage_wall_us[i]);
  instruments_.queue_length->set(
      static_cast<double>(server_.jobs().queued().size()));
  instruments_.dyn_queue_length->set(
      static_cast<double>(server_.jobs().dyn_requests().size()));
  instruments_.free_cores->set(
      static_cast<double>(server_.cluster().free_cores()));
}

void MauiScheduler::schedule_poll() {
  if (poll_event_.valid()) {
    server_.simulator().cancel(poll_event_);
    poll_event_ = EventId::invalid();
  }
  const bool work_left = !server_.jobs().queued().empty() ||
                         !server_.jobs().running().empty() ||
                         !server_.jobs().dyn_requests().empty();
  if (!work_left) return;
  poll_at_ = server_.simulator().now() + config_.poll_interval;
  poll_event_ = server_.simulator().schedule_after(config_.poll_interval,
                                                   [this] { iterate(); });
}

MauiScheduler::ServiceState MauiScheduler::save_service_state() const {
  ServiceState s;
  s.iterations = iterations_;
  s.last_usage_update = statistics_.last_usage_update();
  s.poll_pending = poll_event_.valid();
  if (s.poll_pending) s.poll_at = poll_at_;
  s.fairshare = fairshare_.save_state();
  s.dfs = dfs_.save_state();
  return s;
}

void MauiScheduler::restore_service_state(const ServiceState& s) {
  iterations_ = s.iterations;
  statistics_.restore(s.last_usage_update);
  fairshare_.restore_state(s.fairshare);
  dfs_.restore_state(s.dfs);
  tracker_.rebuild();
  if (poll_event_.valid()) {
    server_.simulator().cancel(poll_event_);
    poll_event_ = EventId::invalid();
  }
  if (s.poll_pending) {
    DBS_REQUIRE(s.poll_at >= server_.simulator().now(),
                "restored poll in the past");
    poll_at_ = s.poll_at;
    poll_event_ =
        server_.simulator().schedule_at(s.poll_at, [this] { iterate(); });
  }
}

}  // namespace dbs::core

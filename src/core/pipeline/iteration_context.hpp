// Shared state of one scheduler pipeline pass.
//
// The IterationContext owns (a) the iteration-scoped values stages hand to
// each other (prioritized jobs, plan options, the drain flag), (b) the
// reusable scratch that used to live as MauiScheduler members so the hot
// path allocates nothing after warm-up (profiles, plans, the measurement
// scratch, JSON buffers), and (c) the wiring every stage needs: the
// DecisionApplier that executes decisions against the server and the
// observability sinks. One context is created per scheduler and re-armed
// by begin_iteration() for every pass.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/availability_profile.hpp"
#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/plan_cache.hpp"
#include "core/priority_cache.hpp"
#include "obs/sinks.hpp"
#include "rms/decision_applier.hpp"

namespace dbs::core {

/// Number of pipeline stages (one per Algorithm-2 step group).
inline constexpr std::size_t kStageCount = 6;

/// Stage names in execution order; indexes stage_wall_us.
[[nodiscard]] const std::array<std::string_view, kStageCount>& stage_names();

/// Counters describing one scheduling iteration (for tests and metrics).
struct IterationStats {
  Time at;
  std::size_t eligible_static = 0;
  std::size_t eligible_dynamic = 0;
  std::size_t started = 0;
  std::size_t backfilled = 0;
  std::size_t reservations = 0;
  std::size_t dyn_granted = 0;
  std::size_t dyn_rejected = 0;
  std::size_t dyn_deferred = 0;  ///< negotiation: request kept queued
  std::size_t preempted = 0;
  std::size_t malleable_shrinks = 0;
  /// Planned StartNow jobs defeated by node-level fragmentation.
  std::size_t start_failed = 0;
  /// Plan-cache effectiveness: jobs planned or re-judged by a full
  /// earliest-fit walk vs. tail verdicts answered from the cache.
  std::uint64_t replanned_jobs = 0;
  std::uint64_t cache_hits = 0;
  /// Wall-clock cost of the iteration in microseconds (host time, not
  /// simulated time).
  double wall_us = 0.0;
  /// Per-stage wall-clock breakdown (host microseconds), indexed like
  /// stage_names(). Sums to roughly wall_us minus orchestration overhead.
  std::array<double, kStageCount> stage_wall_us{};
};

struct IterationContext {
  explicit IterationContext(rms::Server& server_ref);

  IterationContext(const IterationContext&) = delete;
  IterationContext& operator=(const IterationContext&) = delete;

  /// Re-arms the context for one pass: resets the stats and the decision
  /// stream, keeps all scratch storage.
  void begin_iteration(Time at, std::uint64_t iteration_number, bool dry_run);

  /// Re-derives `planning` from `physical` (dynamic-partition clamp).
  void rebuild_planning_profile(CoreCount dynamic_partition_cores);

  // --- wiring --------------------------------------------------------------
  rms::Server& server;
  rms::DecisionApplier applier;
  /// sinks.tracer may be null (tracing off); sinks.registry is always
  /// resolved to a concrete registry by MauiScheduler::set_sinks.
  obs::Sinks sinks;

  // --- iteration-scoped values (reset by begin_iteration) ------------------
  Time now;
  std::uint64_t iteration = 0;
  IterationStats stats;
  /// An exclusive-priority (ESP Z) job is queued: drain mode.
  bool drain = false;
  /// Idle cores right now; kept in lockstep with grants/preemptions/shrinks
  /// during the admission loop.
  CoreCount physical_free = 0;
  /// Step-10 plan options (delay_plan_depth); fixed for the whole pass.
  PlanOptions measure_opts{};
  /// Eligible static jobs, highest priority first.
  std::vector<const rms::Job*> prioritized;

  // --- reusable scratch (persists across iterations) -----------------------
  /// Physical availability: patched incrementally on grant/shrink/preempt
  /// during the admission loop instead of being rebuilt from the job list.
  AvailabilityProfile physical;
  /// `physical` with the dynamic-partition clamp applied.
  AvailabilityProfile planning;
  Plan baseline_plan;  ///< step-10 classification (StartNow/StartLater)
  Plan final_plan;     ///< step-25/26 start plan
  /// Tail-verdict caches, one per plan slot so the two walks' staircase
  /// versions never thrash each other; counters reset per iteration.
  PlanCache classify_cache;
  PlanCache start_cache;
  /// Previous-iteration priority order, reused by the prioritize stage.
  PriorityOrderCache priority_cache;
  std::vector<const rms::Job*> protected_jobs;
  std::vector<rms::DynRequest> requests;  ///< FIFO snapshot of this pass
  DelayMeasurement measure;
  MeasureScratch measure_scratch;
  std::string json_scratch;
};

}  // namespace dbs::core

// The stage interface of the scheduler pipeline.
//
// MauiScheduler::iterate() is an ordered run of six stages, one per step
// group of the paper's Algorithm 2:
//
//   GatherStage            steps 2-3   snapshot queues, advance profiles
//   StatisticsStage        steps 4-5   fairshare usage, DFS interval roll
//   PrioritizeStage        steps 6-9   eligibility + priority order
//   ClassifyStage          step 10     tentative plan, StartNow/StartLater
//   DynamicAdmissionStage  steps 11-24 FIFO dynamic requests, DFS verdicts
//   StartBackfillStage     steps 25-26 start + reserve + backfill
//
// Stages communicate only through the IterationContext and emit decisions
// through ctx.applier (never by calling the server mutators directly), so
// the same pipeline serves live iterations and dry-run what-if passes.
#pragma once

#include <string_view>

#include "core/pipeline/iteration_context.hpp"

namespace dbs::core {

class DfsEngine;
class Fairshare;
class PhysicalProfileTracker;
class PriorityEngine;
struct SchedulerConfig;

/// Long-lived collaborators shared by every stage; owned by MauiScheduler.
struct PipelineEnv {
  rms::Server& server;
  const SchedulerConfig& config;
  Fairshare& fairshare;
  PriorityEngine& priority;
  DfsEngine& dfs;
  /// Persistent physical profile, advanced by the gather stage.
  PhysicalProfileTracker& tracker;
};

class Stage {
 public:
  Stage() = default;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  virtual ~Stage() = default;

  /// Stable identifier used for metrics and traces; matches the entry of
  /// stage_names() at this stage's pipeline position.
  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual void run(PipelineEnv& env, IterationContext& ctx) = 0;
};

}  // namespace dbs::core

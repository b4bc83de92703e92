#pragma once

#include <vector>

#include "core/pipeline/stage.hpp"

namespace dbs::core {

/// Queued jobs eligible this iteration: every queued job, clamped to the
/// first max_eligible_per_user per user when that cap is configured.
/// Clears `out` and fills it, reusing its capacity.
void eligible_static_jobs_into(const rms::Server& server,
                               const SchedulerConfig& config,
                               std::vector<const rms::Job*>& out);

/// Steps 6-9: select eligible static jobs and order them by priority
/// (multi-factor weights + fairshare); detect ESP Z drain mode (an
/// exclusive-priority job is queued).
class PrioritizeStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "prioritize"; }
  void run(PipelineEnv& env, IterationContext& ctx) override;
};

}  // namespace dbs::core

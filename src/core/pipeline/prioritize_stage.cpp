#include "core/pipeline/prioritize_stage.hpp"

#include <string>
#include <unordered_map>

#include "common/assert.hpp"
#include "core/priority.hpp"
#include "core/scheduler_config.hpp"

namespace dbs::core {

void eligible_static_jobs_into(const rms::Server& server,
                               const SchedulerConfig& config,
                               std::vector<const rms::Job*>& out) {
  const auto queued = server.jobs().queued();
  out.assign(queued.begin(), queued.end());
  // Common path: no per-user cap means every queued job is eligible; the
  // per-user counting map is only built when a cap is configured.
  if (!config.max_eligible_per_user) return;
  std::unordered_map<std::string, std::size_t> per_user;
  per_user.reserve(out.size());
  std::size_t kept = 0;
  for (const rms::Job* job : out) {
    std::size_t& count = per_user[job->spec().cred.user];
    if (count >= *config.max_eligible_per_user) continue;
    ++count;
    out[kept++] = job;
  }
  out.resize(kept);
}

std::vector<const rms::Job*> eligible_static_jobs(
    const rms::Server& server, const SchedulerConfig& config) {
  std::vector<const rms::Job*> eligible;
  eligible_static_jobs_into(server, config, eligible);
  return eligible;
}

void PrioritizeStage::run(PipelineEnv& env, IterationContext& ctx) {
  if (env.config.incremental_planning) {
    // Same order, produced incrementally: the previous iteration's output
    // is revalidated under fresh keys and merged with arrivals instead of
    // being re-sorted with live priority() calls in the comparator. The
    // gather reuses the context vector's capacity and the drain flag
    // falls out of the cache's flat exclusive array — neither allocates.
    eligible_static_jobs_into(env.server, env.config, ctx.prioritized);
    ctx.priority_cache.order(ctx.prioritized, env.priority, ctx.now);
    if (env.config.check_invariants) {
      DBS_REQUIRE(ctx.prioritized ==
                      env.priority.prioritize(
                          eligible_static_jobs(env.server, env.config),
                          ctx.now),
                  "incremental priority order diverged from full sort");
    }
    ctx.stats.eligible_static = ctx.prioritized.size();
    ctx.drain = ctx.priority_cache.any_exclusive();
    return;
  }
  ctx.prioritized = env.priority.prioritize(
      eligible_static_jobs(env.server, env.config), ctx.now);
  ctx.stats.eligible_static = ctx.prioritized.size();

  ctx.drain = false;
  for (const rms::Job* job : ctx.prioritized)
    ctx.drain = ctx.drain || job->spec().exclusive_priority;
}

}  // namespace dbs::core

#include "core/pipeline/prioritize_stage.hpp"

#include <string>
#include <unordered_map>

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

void PrioritizeStage::run(PipelineEnv& env, IterationContext& ctx) {
  // The previous iteration's output is revalidated under fresh keys and
  // merged with arrivals instead of being re-sorted with live priority()
  // calls in the comparator; the order is the full sort's. The gather
  // reuses the context vector's capacity and the drain flag falls out of
  // the cache's flat exclusive array — neither allocates.
  eligible_static_jobs_into(env.server, env.config, ctx.prioritized);
  ctx.priority_cache.order(ctx.prioritized, env.priority, ctx.now);
  ctx.stats.eligible_static = ctx.prioritized.size();
  ctx.drain = ctx.priority_cache.any_exclusive();
}

}  // namespace dbs::core

#include "core/pipeline/gather_stage.hpp"

#include "core/physical_profile.hpp"
#include "core/scheduler_config.hpp"

namespace dbs::core {

void GatherStage::run(PipelineEnv& env, IterationContext& ctx) {
  // Dynamic requests are served in FIFO order (the server's queue order);
  // the snapshot fixes this iteration's serving order even as grants and
  // rejections mutate the live queue.
  ctx.requests.assign(env.server.jobs().dyn_requests().begin(),
                      env.server.jobs().dyn_requests().end());
  ctx.stats.eligible_dynamic = ctx.requests.size();

  // The iteration's physical profile: the persistent tracker advanced to
  // now (O(Δ) in state changes since the last iteration), copied into the
  // context — the admission stage patches its copy in place on every
  // state change (grant, malleable shrink, preemption) and dry runs must
  // not perturb the tracker.
  env.tracker.advance(ctx.now);
  ctx.physical = env.tracker.profile();
  ctx.physical_free = env.server.cluster().free_cores();
  ctx.rebuild_planning_profile(env.config.dynamic_partition_cores);
}

}  // namespace dbs::core

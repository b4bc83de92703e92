#include "core/pipeline/start_backfill_stage.hpp"

#include "core/backfill.hpp"
#include "core/dfs_engine.hpp"
#include "core/scheduler_config.hpp"
#include "obs/tracer.hpp"

namespace dbs::core {

void StartBackfillStage::run(PipelineEnv& env, IterationContext& ctx) {
  const PlanOptions start_opts{ctx.now, env.config.reservation_depth,
                               env.config.enable_backfill && !ctx.drain,
                               ctx.drain};
  plan_jobs_into(ctx.prioritized, ctx.planning, start_opts, ctx.final_plan,
                 &ctx.start_cache);
  for (const Reservation& r : ctx.final_plan.table.items()) {
    if (!r.start_now) {
      ctx.applier.reserve(r.job, r.cores, r.start);
      ++ctx.stats.reservations;
      continue;
    }
    // The aggregate plan can be defeated by node-level fragmentation
    // (chunked placement); the job then simply stays queued and is
    // re-planned next iteration — exactly what a real Maui does when the
    // node allocation it asked Torque for cannot be built.
    if (!ctx.applier.start_job(r.job, r.backfilled)) {
      ++ctx.stats.start_failed;
      continue;
    }
    if (!ctx.applier.dry_run()) env.dfs.on_job_started(r.job);
    ++ctx.stats.started;
    if (r.backfilled) {
      ++ctx.stats.backfilled;
      DBS_TRACE_EVENT(ctx.sinks.tracer, obs::TraceEvent(ctx.now, "sched",
                                                        "backfill")
                                            .field("job", r.job.value()));
    }
  }
}

}  // namespace dbs::core

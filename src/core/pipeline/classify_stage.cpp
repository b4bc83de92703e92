#include "core/pipeline/classify_stage.hpp"

#include <string>

#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/scheduler_config.hpp"
#include "obs/tracer.hpp"

namespace dbs::core {

namespace {

/// Appends a JSON array of the job ids in a reservation-table subset.
void ids_json(const ReservationTable& table, bool start_now, std::string& out) {
  const std::size_t begin = out.size();
  out += '[';
  for (const Reservation& r : table.items()) {
    if (r.start_now != start_now) continue;
    if (out.size() > begin + 1) out += ',';
    out += std::to_string(r.job.value());
  }
  out += ']';
}

void ids_json(const std::vector<const rms::Job*>& jobs, std::string& out) {
  const std::size_t begin = out.size();
  out += '[';
  for (const rms::Job* job : jobs) {
    if (out.size() > begin + 1) out += ',';
    out += std::to_string(job->id().value());
  }
  out += ']';
}

}  // namespace

void ClassifyStage::run(PipelineEnv& env, IterationContext& ctx) {
  // Step-10 plan options: delay-measurement reservations up to
  // max(ReservationDepth, ReservationDelayDepth). Fixed for the whole pass;
  // the admission stage replans with the same options after state changes.
  ctx.measure_opts =
      PlanOptions{ctx.now, env.config.delay_plan_depth(),
                  env.config.enable_backfill && !ctx.drain, ctx.drain};
  plan_jobs_into(ctx.prioritized, ctx.planning, ctx.measure_opts,
                 ctx.baseline_plan, &ctx.classify_cache);
  // The protected set (StartNow + first ReservationDelayDepth StartLater,
  // Fig. 5) is fixed by this step-10 classification for the whole
  // iteration, even as grants shift later plans.
  protected_subset_into(ctx.prioritized, ctx.baseline_plan.table,
                        env.config.reservation_delay_depth,
                        ctx.protected_jobs);

  // Step-10 audit record: the StartNow / StartLater split and the protected
  // set the fairness policies will judge this iteration's requests against.
  obs::Tracer* tracer = ctx.sinks.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    obs::TraceEvent ev(ctx.now, "sched", "classify");
    ev.field("iteration", ctx.iteration);
    ctx.json_scratch.clear();
    ids_json(ctx.baseline_plan.table, true, ctx.json_scratch);
    ev.field_json("start_now", ctx.json_scratch);
    ctx.json_scratch.clear();
    ids_json(ctx.baseline_plan.table, false, ctx.json_scratch);
    ev.field_json("start_later", ctx.json_scratch);
    ctx.json_scratch.clear();
    ids_json(ctx.protected_jobs, ctx.json_scratch);
    ev.field_json("protected", ctx.json_scratch);
    tracer->emit(ev);
  }
}

}  // namespace dbs::core

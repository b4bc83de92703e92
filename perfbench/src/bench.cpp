#include "bench.hpp"

#include <cstdio>
#include <iostream>

#include <sys/resource.h>

namespace perfbench {

using dbs::core::kStageCount;
using dbs::core::stage_names;

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

SpanLog make_span_log() {
  SpanLog log;
  for (const char* name :
       {"bench.setup", "workload.generate", "batch.run", "workload.next",
        "core.iterate", "metrics.summarize", "svc.tick", "svc.idle",
        "svc.submit", "bench.crash_copy", "svc.finalize", "svc.recovery"})
    log.intern(name);
  return log;
}

void JobProbe::on_submit(const dbs::rms::Job& job) {
  if (submitted == 0) first_id_ = job.id().value();
  if (job.id().value() - first_id_ != submitted) ids_in_order = false;
  ++submitted;
}

void JobProbe::on_job_start(const dbs::rms::Job& job) {
  const std::uint64_t index = job.id().value() - first_id_;
  if (index < start_ns.size() && start_ns[index] == 0)
    start_ns[index] = now_ns();
}

void JobProbe::on_job_finish(const dbs::rms::Job&) {
  ++finished;
  if (mark_segments && finished % kSegmentJobs == 0)
    segment_marks_ns.push_back(now_ns());
}

SchedulerProbe::SchedulerProbe(dbs::batch::BatchSystem& system,
                               Tracer& tracer) {
  system.server().set_scheduler_trigger([this, &system, &tracer] {
    {
      const Tracer::Scope s = tracer.scope(kIterate);
      system.scheduler().iterate();
    }
    ++traced;
    const auto& stage = system.scheduler().last_stats().stage_wall_us;
    for (std::size_t i = 0; i < kStageCount; ++i) stage_us[i] += stage[i];
  });
}

std::uint64_t counter_value(const dbs::obs::Registry& registry,
                            const std::string& name) {
  const dbs::obs::Counter* c = registry.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

void Layers::add_system(dbs::batch::BatchSystem& system,
                        const SchedulerProbe& sched, const JobProbe& probe,
                        const dbs::obs::Registry& registry) {
  iterations += system.scheduler().iterations();
  traced_iterations += sched.traced;
  for (std::size_t i = 0; i < kStageCount; ++i)
    stage_us[i] += sched.stage_us[i];
  events += system.simulator().events_fired();
  dyn_requests += probe.dyn_requests;
  dyn_granted += probe.dyn_granted;
  dyn_rejected += probe.dyn_rejected;
  replanned_jobs += counter_value(registry, "scheduler.replanned_jobs");
  plan_cache_hits += counter_value(registry, "scheduler.plan_cache_hits");
}

void Layers::fold(SpanLog& log, SpanLog& kept) {
  const std::vector<NameTotals> totals = totals_by_name(log);
  for (std::size_t i = 0; i < totals.size() && i < spans.size(); ++i) {
    spans[i].count += totals[i].count;
    spans[i].total_ns += totals[i].total_ns;
    spans[i].self_ns += totals[i].self_ns;
  }
  for (const Span& s : log.spans()) {
    if (s.name == kIterate)
      iterate_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
    else if (s.name == kSubmit)
      submit_ns.push_back(static_cast<double>(s.duration_ns()));
  }
  if (kept.spans().empty())
    for (const Span& s : log.spans()) kept.add(s);
  log.clear();
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void write_spans(const SpanLog& spans, const Options& options) {
  const std::string path =
      options.out_dir + "/" + options.workload + ".spans.tsv";
  if (!spans.write_tsv(path))
    std::cerr << "perfbench: warning: cannot write " << path << "\n";
}

void emit_end_to_end(const std::vector<double>& setup_s, double jobs_per_s,
                     const std::vector<double>& run_ms, Outcome& out) {
  out.set("setup_s", median(setup_s), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("jobs_per_s", jobs_per_s, "1/s");
  out.set("run_ms_p50", percentile(run_ms, 0.5), "ms");
  out.note("run_ms_p99", percentile(run_ms, 0.99), "ms");
  out.note("samples.setup", static_cast<double>(setup_s.size()), "count");
  out.note("samples.run_ms", static_cast<double>(run_ms.size()), "count");
}

void append_segments(std::int64_t begin_ns,
                     const std::vector<std::int64_t>& marks_ns,
                     std::vector<double>& run_ms) {
  std::int64_t prev = begin_ns;
  for (const std::int64_t mark : marks_ns) {
    run_ms.push_back(static_cast<double>(mark - prev) / 1e6);
    prev = mark;
  }
}

void emit_layers(const Layers& l, Outcome& out) {
  const double items = static_cast<double>(l.items);
  const auto per_item_s = [&](SpanName n, bool self) {
    const NameTotals& t = l.spans[n];
    return ratio(static_cast<double>(self ? t.self_ns : t.total_ns) / 1e9,
                 items);
  };
  const auto per_item = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), items);
  };

  const double next_s = per_item_s(kNext, false);
  out.set("workload.next_s", next_s, "s");
  out.set("workload.records", per_item(l.records), "count");
  out.set("workload.ns_per_record",
          ratio(static_cast<double>(l.spans[kNext].total_ns),
                static_cast<double>(l.records)),
          "ns");
  out.set("workload.generate_s", per_item_s(kGenerate, false), "s");

  const double iterate_s = per_item_s(kIterate, false);
  double stages_s = 0.0;
  for (double us : l.stage_us) stages_s += us / 1e6;
  out.set("core.iterations", per_item(l.iterations), "count");
  out.set("core.iterations_untraced",
          per_item(l.iterations - l.traced_iterations), "count");
  out.set("core.iterate_s", iterate_s, "s");
  out.set("core.iterate_us_p50", percentile(l.iterate_us, 0.5), "us");
  out.set("core.iterate_us_p99", percentile(l.iterate_us, 0.99), "us");
  out.set("core.iterate_self_s", iterate_s - ratio(stages_s, items), "s");
  for (std::size_t i = 0; i < kStageCount; ++i)
    out.set("core.stage." + std::string(stage_names()[i]) + "_s",
            ratio(l.stage_us[i] / 1e6, items), "s");
  out.set("core.dyn_requests", per_item(l.dyn_requests), "count");
  out.set("core.dyn_granted", per_item(l.dyn_granted), "count");
  out.set("core.dyn_rejected", per_item(l.dyn_rejected), "count");
  out.set("core.dyn_grant_ratio",
          ratio(static_cast<double>(l.dyn_granted),
                static_cast<double>(l.dyn_requests)),
          "ratio");
  out.set("core.replanned_jobs", per_item(l.replanned_jobs), "count");
  out.set("core.plan_cache_hits", per_item(l.plan_cache_hits), "count");
  out.set("core.plan_cache_hit_ratio",
          ratio(static_cast<double>(l.plan_cache_hits),
                static_cast<double>(l.plan_cache_hits + l.replanned_jobs)),
          "ratio");

  out.set("batch.run_s", per_item_s(kRun, false), "s");
  out.set("batch.run_self_s", per_item_s(kRun, true), "s");
  out.set("sim.events", per_item(l.events), "count");
  out.set("sim.ns_per_event",
          ratio(static_cast<double>(l.spans[kRun].self_ns),
                static_cast<double>(l.events)),
          "ns");
  out.set("metrics.summarize_s", per_item_s(kSummarize, false), "s");

  out.set("svc.submit_ns_p50", percentile(l.submit_ns, 0.5), "ns");
  out.set("svc.submit_ns_p99", percentile(l.submit_ns, 0.99), "ns");
  out.set("svc.ticks", per_item(l.spans[kTick].count), "count");
  out.set("svc.tick_us_p50", percentile(l.tick_us, 0.5), "us");
  out.set("svc.tick_us_p99", percentile(l.tick_us, 0.99), "us");
  out.set("svc.tick_self_s", per_item_s(kTick, true), "s");
  out.set("svc.sync_ticks", per_item(l.sync_ticks), "count");
  out.set("svc.records_per_sync",
          ratio(static_cast<double>(l.jobs),
                static_cast<double>(l.sync_ticks)),
          "count");
  out.set("svc.snapshot_ticks",
          per_item(static_cast<std::uint64_t>(l.snapshot_tick_us.size())),
          "count");
  out.set("svc.snapshot_tick_us_p50", percentile(l.snapshot_tick_us, 0.5),
          "us");
  out.set("svc.wal_bytes_per_job",
          ratio(static_cast<double>(l.wal_bytes), static_cast<double>(l.jobs)),
          "B");
  out.set("svc.decisions", per_item(l.decisions), "count");
  out.set("run_ms_p99", percentile(l.run_ms, 0.99), "ms");
  out.set("svc.ack_us_p50", percentile(l.ack_us, 0.5), "us");
  out.set("svc.ack_us_p99", percentile(l.ack_us, 0.99), "us");
  out.set("svc.decided_us_p50", percentile(l.decided_us, 0.5), "us");
  out.set("svc.decided_us_p99", percentile(l.decided_us, 0.99), "us");
  out.set("svc.recovery_s", median(l.recovery_s), "s");
  out.set("svc.recovery_wal_bytes", per_item(l.recovery_wal_bytes), "B");

  // Everything the benchmark thread spent inside a span is attributed;
  // the producer thread's submit spans run concurrently and are not part
  // of this thread's wall time.
  std::int64_t attributed_ns = 0;
  for (std::size_t n = 0; n < l.spans.size(); ++n)
    if (n != kSubmit) attributed_ns += l.spans[n].self_ns;
  out.set("bench.gen_late_us_p99", percentile(l.gen_late_us, 0.99), "us");
  out.set("bench.coverage_ratio", coverage_ratio(attributed_ns, l.wall_ns),
          "ratio");
  out.set("bench.unattributed_s",
          ratio(static_cast<double>(l.wall_ns - attributed_ns) / 1e9, items),
          "s");
  out.set("bench.trace_overhead_ratio",
          ratio(median(l.traced_item_s), median(l.untraced_item_s)), "ratio");
}

}  // namespace perfbench

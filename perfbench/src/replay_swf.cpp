// replay_swf: a generated SWF trace streamed through SwfSource into a
// 128 x 8-core system with a 1% evolving overlay, job retirement and
// streaming metrics — the configuration `dbsim --swf` uses. One work item
// is one full replay of one trace; the trace text is generated during
// set-up, so the replay measures parse, dispatch and scheduling only.
// Cycles of traces repeat until the time is up.
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "metrics/report.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace perfbench {
namespace {

using namespace dbs;

/// Replays cycle through kCycleTraces traces of kJobs jobs, with trace
/// seeds following from --seed: one trace's throughput depends on how deep
/// its queues happen to grow, the mean over many traces much less.
constexpr std::uint64_t kJobs = 25000;
constexpr std::uint64_t kCycleTraces = 32;

/// Everything one replay owns, built during set-up.
struct Replay {
  Replay(const wl::swf::SwfGenParams& gen, bool stage_timing)
      : in(trace_text(gen)), source(in, source_config()) {
    const wl::swf::SwfHeader& header = source.header();
    batch::SystemConfig config;
    config.cluster.cores_per_node = 8;
    config.cluster.node_count = static_cast<std::size_t>(
        (header.max_procs + config.cluster.cores_per_node - 1) /
        config.cluster.cores_per_node);
    config.retire_finished_jobs = true;
    config.streaming_metrics = true;
    config.scheduler.stage_timing = stage_timing;
    system = std::make_unique<batch::BatchSystem>(config);
    source.set_max_cores(system->cluster().total_cores());
    system->set_sinks({nullptr, &registry});
    system->server().add_observer(&probe);
  }

  static std::string trace_text(const wl::swf::SwfGenParams& gen) {
    std::ostringstream out;
    wl::swf::generate_swf(out, gen);
    return std::move(out).str();
  }
  static wl::swf::SwfSourceConfig source_config() {
    wl::swf::SwfSourceConfig c;
    c.overlay_dynamic_fraction = 0.01;
    return c;
  }

  std::istringstream in;
  wl::swf::SwfSource source;
  obs::Registry registry;
  JobProbe probe;
  std::unique_ptr<batch::BatchSystem> system;  ///< dies before probe
};

}  // namespace

Outcome run_replay_swf(const Options& options) {
  Outcome out;
  Layers layers;
  SpanLog log = make_span_log();
  SpanLog kept = make_span_log();
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> run_ms;
  std::vector<std::optional<metrics::WorkloadSummary>> first(kCycleTraces);

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::uint64_t jobs = 0;
  double run_s_total = 0.0;
  std::uint32_t item = 0;
  for (;; ++item) {
    const std::uint64_t t = item % kCycleTraces;
    const std::uint64_t cycle = item / kCycleTraces;
    // Traced runs alternate by cycle and end on a cycle boundary: untraced
    // cycles give the overhead baseline, and per-item counts of the traced
    // ones cover the same traces on every run.
    if (now_ns() >= deadline && item > 0 &&
        (!options.trace || (t == 0 && cycle >= 2)))
      break;
    const bool traced = options.trace && cycle % 2 == 1;
    tracer.log = traced ? &log : nullptr;
    tracer.run = item;
    wl::swf::SwfGenParams gen;
    gen.jobs = kJobs;
    gen.seed = options.seed * kCycleTraces + t;

    const std::int64_t item_begin = now_ns();
    std::unique_ptr<Replay> r;
    {
      const Tracer::Scope s = tracer.scope(kSetup);
      r = std::make_unique<Replay>(gen, traced);
    }
    setup_s.push_back(static_cast<double>(now_ns() - item_begin) / 1e9);

    std::optional<SchedulerProbe> sched;
    if (traced) sched.emplace(*r->system, tracer);
    TimedSource timed(r->source, tracer);
    wl::SubmissionSource& source =
        traced ? static_cast<wl::SubmissionSource&>(timed) : r->source;

    const std::int64_t run_begin = now_ns();
    {
      const Tracer::Scope s = tracer.scope(kRun);
      r->system->submit_stream(source, /*window=*/1024);
      r->system->run();
    }
    const std::int64_t run_end = now_ns();
    metrics::WorkloadSummary summary;
    {
      const Tracer::Scope s = tracer.scope(kSummarize);
      summary = metrics::summarize(r->system->recorder());
    }
    const std::int64_t item_end = now_ns();

    const std::uint64_t yielded = r->source.yielded();
    out.check(yielded == kJobs && summary.jobs_completed == yielded,
              "replay completed " + std::to_string(summary.jobs_completed) +
                  " of " + std::to_string(yielded) + " yielded jobs");
    if (!first[t]) first[t] = summary;
    out.check(summary.jobs_completed == first[t]->jobs_completed &&
                  summary.satisfied_dyn_jobs == first[t]->satisfied_dyn_jobs &&
                  summary.backfilled_jobs == first[t]->backfilled_jobs &&
                  summary.makespan == first[t]->makespan &&
                  summary.avg_wait == first[t]->avg_wait,
              "replays of trace seed " + std::to_string(gen.seed) + " differ");

    const double run_s = static_cast<double>(run_end - run_begin) / 1e9;
    if (!traced) {
      jobs += yielded;
      run_s_total += run_s;
      append_segments(run_begin, r->probe.segment_marks_ns, run_ms);
      layers.untraced_item_s.push_back(run_s);
      continue;
    }
    layers.traced_item_s.push_back(run_s);
    ++layers.items;
    layers.wall_ns += item_end - item_begin;
    layers.records += timed.records;
    layers.add_system(*r->system, *sched, r->probe, r->registry);
    layers.fold(log, kept);
  }

  if (options.trace) {
    layers.run_ms = std::move(run_ms);
    emit_layers(layers, out);
    write_spans(kept, options);
  } else {
    emit_end_to_end(setup_s, static_cast<double>(jobs) / run_s_total, run_ms,
                    out);
  }
  out.note("samples.items", static_cast<double>(item), "count");
  return out;
}

}  // namespace perfbench

// esp_dynamic: the four Table II configurations (Static, Dyn-HP, Dyn-500,
// Dyn-600) run back to back over a cycle of ESP seeds, with materialized
// workloads and per-job metrics — the deep-queue, dynamic-request use of
// the scheduler. One work item is one ESP run (one configuration, one
// seed): generate the workload, submit it, simulate, summarize.
//
// The cycle always opens with the paper's seed 2014, whose strict
// satisfied counts are checked against Table II; the other seeds follow
// consecutively from a base derived from --seed. Tracing alternates by
// whole cycles, so per-item counts of a traced run repeat exactly.
#include <memory>
#include <optional>

#include "batch/esp_experiment.hpp"
#include "bench.hpp"
#include "metrics/report.hpp"

namespace perfbench {
namespace {

using namespace dbs;

constexpr std::uint64_t kPaperSeed = 2014;
constexpr std::uint64_t kCycleSeeds = 32;
constexpr std::size_t kEspJobs = 230;
constexpr batch::EspConfig kConfigs[] = {
    batch::EspConfig::Static, batch::EspConfig::DynHP,
    batch::EspConfig::Dyn500, batch::EspConfig::Dyn600};
/// Table II strict satisfied jobs on seed 2014, in kConfigs order.
constexpr std::size_t kPaperSatisfied[] = {0, 28, 14, 10};

/// One ESP run's system, built during set-up.
struct EspRun {
  explicit EspRun(const batch::SystemConfig& config) : system(config) {
    system.set_sinks({nullptr, &registry});
    system.server().add_observer(&probe);
  }
  obs::Registry registry;
  JobProbe probe;
  batch::BatchSystem system;  ///< dies before probe
};

}  // namespace

Outcome run_esp_dynamic(const Options& options) {
  std::vector<std::uint64_t> seeds{kPaperSeed};
  for (std::uint64_t j = 1; j < kCycleSeeds; ++j)
    seeds.push_back(kPaperSeed + options.seed * kCycleSeeds + j);
  const batch::EspExperimentParams params;

  Outcome out;
  Layers layers;
  SpanLog log = make_span_log();
  SpanLog kept = make_span_log();
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> run_ms;
  std::vector<double> rates;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::uint32_t min_cycles = options.trace ? 2 : 1;
  std::uint32_t item = 0;
  for (std::uint32_t cycle = 0; cycle < min_cycles || now_ns() < deadline;
       ++cycle) {
    const bool traced = options.trace && cycle % 2 == 1;
    tracer.log = traced ? &log : nullptr;
    double cycle_run_s = 0.0;
    for (const std::uint64_t seed : seeds) {
      for (std::size_t c = 0; c < std::size(kConfigs); ++c, ++item) {
        tracer.run = item;
        batch::SystemConfig config =
            batch::esp_system_config(params, kConfigs[c]);
        config.scheduler.stage_timing = traced;

        const std::int64_t item_begin = now_ns();
        std::unique_ptr<EspRun> r;
        {
          const Tracer::Scope s = tracer.scope(kSetup);
          r = std::make_unique<EspRun>(config);
        }
        setup_s.push_back(static_cast<double>(now_ns() - item_begin) / 1e9);
        std::optional<SchedulerProbe> sched;
        if (traced) sched.emplace(r->system, tracer);

        const std::int64_t run_begin = now_ns();
        wl::Workload workload;
        {
          const Tracer::Scope s = tracer.scope(kGenerate);
          wl::EspParams wl_params = params.workload;
          wl_params.seed = seed;
          wl_params.evolving_enabled = kConfigs[c] != batch::EspConfig::Static;
          workload = wl::generate_esp(wl_params);
        }
        {
          const Tracer::Scope s = tracer.scope(kRun);
          r->system.submit_workload(workload);
          r->system.run();
        }
        metrics::WorkloadSummary summary;
        {
          const Tracer::Scope s = tracer.scope(kSummarize);
          summary = metrics::summarize(r->system.recorder());
        }
        const std::int64_t run_end = now_ns();

        const std::string label = std::string(batch::to_string(kConfigs[c])) +
                                  " seed " + std::to_string(seed);
        out.check(summary.jobs_submitted == kEspJobs &&
                      summary.jobs_completed == kEspJobs,
                  label + ": " + std::to_string(summary.jobs_completed) +
                      " of 230 jobs completed");
        if (seed == kPaperSeed)
          out.check(summary.satisfied_dyn_jobs == kPaperSatisfied[c],
                    label + ": " + std::to_string(summary.satisfied_dyn_jobs) +
                        " strict satisfied jobs, Table II has " +
                        std::to_string(kPaperSatisfied[c]));

        const double run_s = static_cast<double>(run_end - run_begin) / 1e9;
        cycle_run_s += run_s;
        if (!traced) {
          run_ms.push_back(run_s * 1e3);
          layers.untraced_item_s.push_back(run_s);
          continue;
        }
        layers.traced_item_s.push_back(run_s);
        ++layers.items;
        layers.wall_ns += run_end - item_begin;
        layers.add_system(r->system, *sched, r->probe, r->registry);
        layers.fold(log, kept);
      }
    }
    if (!traced)
      rates.push_back(static_cast<double>(kEspJobs * seeds.size() *
                                          std::size(kConfigs)) /
                      cycle_run_s);
  }

  if (options.trace) {
    layers.run_ms = std::move(run_ms);
    emit_layers(layers, out);
    write_spans(kept, options);
  } else {
    emit_end_to_end(setup_s, median(rates), run_ms, out);
  }
  out.note("samples.items", static_cast<double>(item), "count");
  return out;
}

}  // namespace perfbench

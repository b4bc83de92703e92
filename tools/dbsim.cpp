// dbsim — run a workload trace through the dynamic batch system.
//
//   dbsim --trace workload.trace [--config maui.cfg] [--nodes 16]
//           [--cores-per-node 8] [--qstat] [--dry-run-iteration]
//           [--csv waits.csv]
//           [--trace-out events.jsonl] [--trace-format jsonl|chrome]
//           [--metrics-json metrics.json] [--record-out run.dbsr]
//           [--replications R] [--jobs N] [--stage-breakdown]
//           [--shards K] [--shard-by hash|user|partition|least]
//           [--shard-map range|hash] [--shard-threads T]
//
// The trace format is documented in src/workload/trace.hpp (write one with
// `esp_campaign --trace`). The config file uses the Maui-style syntax of
// the paper's Fig. 6 (see src/config/maui_config.hpp). --trace-out captures
// a structured scheduler event trace (--trace-format chrome emits Chrome
// trace-event JSON loadable in Perfetto / chrome://tracing); --metrics-json
// snapshots the run's metrics registry on exit (`-` writes it to stdout).
// --record-out captures the run as a binary flight-recorder file (every
// lifecycle event + every applied scheduler decision, indexed by job and
// time; query it with dbsq). With --replications R > 1 each replication
// records its own shard (<file>, <file>.rep1, ...) and an index-ordered
// manifest lands in <file>.manifest.json.
//
// Parallel execution: --replications R re-runs the trace R times as
// independent replications (isolated simulator + registry each) and
// --jobs N executes them on N threads; the merged metrics snapshot is
// byte-identical for every N (the trace goes to replication 0 only).
//
// Sharded scheduling: --shards K partitions the cluster's nodes into K
// shards (--shard-map range|hash), each scheduled by its own independent
// scheduler stack, and routes every submission to exactly one shard
// (--shard-by: hash/user = fnv1a(user) % K, partition = job class name
// matched against shard names part0..partK-1, least = deterministic
// least-loaded). --shard-threads T runs the K shard simulations on T
// threads; the output (summary, metrics, per-shard records) is
// byte-identical for every T. With --record-out each shard records its own
// file (<file>, <file>.rep1, ...) plus a manifest, exactly like
// --replications.
//
// --dry-run-iteration pauses mid-run (same snapshot point as --qstat),
// runs the scheduler pipeline once in dry-run mode and prints the decision
// stream it would execute (one JSON object per line) without applying any
// of it, then resumes the simulation. --stage-breakdown prints the mean
// per-stage wall time of a scheduler iteration after the run.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "batch/experiment.hpp"
#include "batch/parallel_runner.hpp"
#include "batch/sharded_system.hpp"
#include "cli_number.hpp"
#include "common/assert.hpp"
#include "config/maui_config.hpp"
#include "core/pipeline/iteration_context.hpp"
#include "obs/recorder/manifest.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "rms/decision.hpp"
#include "rms/status.hpp"
#include "svc/ingest.hpp"
#include "svc/service_loop.hpp"
#include "workload/swf/swf_source.hpp"
#include "workload/trace.hpp"

using namespace dbs;

namespace {

int usage(const char* argv0, int code) {
  std::cerr << "usage: " << argv0
            << " (--trace FILE | --swf FILE) [--config FILE] [--nodes N]\n"
               "       [--cores-per-node N] [--qstat] [--dry-run-iteration]\n"
               "       [--csv FILE]\n"
               "       [--trace-out FILE] [--trace-format jsonl|chrome]\n"
               "       [--metrics-json FILE|-] [--record-out FILE]\n"
               "       [--replications R] [--jobs N] [--stage-breakdown]\n"
               "       [--swf-window N] [--swf-overlay-dynamic PCT]\n"
               "       [--swf-seed S] [--swf-policy skip|strict]\n"
               "       [--swf-materialize] [--serve]\n"
               "       [--shards K] [--shard-by hash|user|partition|least]\n"
               "       [--shard-map range|hash] [--shard-threads T]\n";
  return code;
}

/// Mean per-stage wall time from the run's merged registry, one line,
/// plus the plan-cache effectiveness counters of the incremental planner:
/// how many per-job verdicts were recomputed vs answered from cache.
void print_stage_breakdown(const obs::Registry& registry) {
  std::cout << "stage breakdown (mean us/iteration):";
  for (const std::string_view name : core::stage_names()) {
    const obs::Histogram* h = registry.find_histogram(
        std::string("scheduler.stage_iteration_us.") + std::string(name));
    std::cout << " " << name << "=";
    if (h == nullptr || h->count() == 0)
      std::cout << "n/a";
    else
      std::cout << TextTable::num(h->sum() / static_cast<double>(h->count()),
                                  3);
  }
  const obs::Counter* replanned =
      registry.find_counter("scheduler.replanned_jobs");
  const obs::Counter* hits = registry.find_counter("scheduler.plan_cache_hits");
  std::cout << " replanned_jobs="
            << (replanned == nullptr ? 0 : replanned->value())
            << " cache_hits=" << (hits == nullptr ? 0 : hits->value());
  std::cout << "\n";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(1);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string swf_path;
  std::size_t swf_window = 1024;
  double swf_overlay_pct = 0.0;
  std::uint64_t swf_seed = 2014;
  bool swf_strict = false;
  bool swf_materialize = false;
  bool serve = false;
  std::string config_path;
  std::string csv_path;
  std::string trace_out_path;
  std::string metrics_json_path;
  std::string record_out_path;
  obs::TraceFormat trace_format = obs::TraceFormat::Jsonl;
  std::size_t nodes = 0;
  CoreCount cores_per_node = 8;
  bool qstat = false;
  bool dry_run_iteration = false;
  bool stage_breakdown = false;
  std::size_t replications = 1;
  std::size_t run_jobs = 1;
  std::size_t shards = 1;
  std::size_t shard_threads = 1;
  core::RoutePolicy shard_by = core::RoutePolicy::UserHash;
  batch::ShardMapKind shard_map = batch::ShardMapKind::Range;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage(argv[0], 2));
      return argv[++i];
    };
    if (arg == "--trace") trace_path = next();
    else if (arg == "--swf") swf_path = next();
    else if (arg == "--swf-window")
      cli::parse_into(swf_window, arg, next());
    else if (arg == "--swf-overlay-dynamic")
      cli::parse_into(swf_overlay_pct, arg, next());
    else if (arg == "--swf-seed") cli::parse_into(swf_seed, arg, next());
    else if (arg == "--swf-policy") {
      const std::string policy = next();
      if (policy == "strict") swf_strict = true;
      else if (policy == "skip") swf_strict = false;
      else {
        std::cerr << "unknown --swf-policy '" << policy
                  << "' (expected skip or strict)\n";
        return 2;
      }
    }
    else if (arg == "--swf-materialize") swf_materialize = true;
    else if (arg == "--serve") serve = true;
    else if (arg == "--config") config_path = next();
    else if (arg == "--nodes") cli::parse_into(nodes, arg, next());
    else if (arg == "--cores-per-node")
      cli::parse_into(cores_per_node, arg, next());
    else if (arg == "--qstat") qstat = true;
    else if (arg == "--dry-run-iteration") dry_run_iteration = true;
    else if (arg == "--stage-breakdown") stage_breakdown = true;
    else if (arg == "--csv") csv_path = next();
    else if (arg == "--trace-out") trace_out_path = next();
    else if (arg == "--trace-format") {
      const std::string fmt = next();
      if (!obs::parse_trace_format(fmt, trace_format)) {
        std::cerr << "unknown trace format '" << fmt
                  << "' (expected jsonl or chrome)\n";
        return 2;
      }
    }
    else if (arg == "--metrics-json") metrics_json_path = next();
    else if (arg == "--record-out") record_out_path = next();
    else if (arg == "--replications")
      cli::parse_into(replications, arg, next());
    else if (arg == "--jobs")
      cli::parse_into(run_jobs, arg, next());
    else if (arg == "--shards")
      cli::parse_into(shards, arg, next());
    else if (arg == "--shard-threads")
      cli::parse_into(shard_threads, arg, next());
    else if (arg == "--shard-by") {
      const std::string by = next();
      if (by == "hash" || by == "user") shard_by = core::RoutePolicy::UserHash;
      else if (by == "partition") shard_by = core::RoutePolicy::Partition;
      else if (by == "least" || by == "least-loaded")
        shard_by = core::RoutePolicy::LeastLoaded;
      else {
        std::cerr << "unknown --shard-by '" << by
                  << "' (expected hash, user, partition or least)\n";
        return 2;
      }
    }
    else if (arg == "--shard-map") {
      const std::string kind = next();
      if (kind == "range") shard_map = batch::ShardMapKind::Range;
      else if (kind == "hash") shard_map = batch::ShardMapKind::Hash;
      else {
        std::cerr << "unknown --shard-map '" << kind
                  << "' (expected range or hash)\n";
        return 2;
      }
    }
    else if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    else return usage(argv[0], 2);
  }
  if (trace_path.empty() == swf_path.empty()) {
    std::cerr << "exactly one of --trace and --swf is required\n";
    return usage(argv[0], 2);
  }
  if (!swf_path.empty()) {
    if (replications > 1) {
      std::cerr << "--swf streams from one file and supports --replications 1 "
                   "only\n";
      return 2;
    }
    if (qstat || dry_run_iteration) {
      std::cerr << "--qstat/--dry-run-iteration are not supported with --swf\n";
      return 2;
    }
    if (!csv_path.empty() && !swf_materialize) {
      std::cerr << "--csv needs per-job records; use --swf-materialize (the "
                   "streaming path folds finished jobs into aggregates)\n";
      return 2;
    }
    if (swf_window == 0) {
      std::cerr << "--swf-window must be >= 1\n";
      return 2;
    }
    if (swf_overlay_pct < 0.0 || swf_overlay_pct > 100.0) {
      std::cerr << "--swf-overlay-dynamic must be a percentage in [0, 100]\n";
      return 2;
    }
    if (serve && swf_materialize) {
      std::cerr << "--serve uses the streaming ingest path; drop "
                   "--swf-materialize\n";
      return 2;
    }
  }
  if (serve && swf_path.empty()) {
    std::cerr << "--serve requires --swf\n";
    return 2;
  }
  if (replications < 1 || run_jobs < 1) {
    std::cerr << "--replications and --jobs must be >= 1\n";
    return 2;
  }
  if (cores_per_node < 1) {
    std::cerr << "--cores-per-node must be >= 1\n";
    return 2;
  }
  // `-` conventionally means stdout; the recorder writes an indexed binary
  // file and cannot stream, so reject it instead of creating a file
  // literally named "-". (--trace-out stays file-only: its formats are
  // stream-shaped but the tracer owns the file lifecycle.)
  if (record_out_path == "-") {
    std::cerr << "--record-out cannot write to stdout (`-`): the recorder "
                 "emits an indexed binary file; give it a path\n";
    return 2;
  }
  if ((qstat || dry_run_iteration) && replications > 1) {
    std::cerr << "--qstat and --dry-run-iteration are only supported with "
                 "--replications 1\n";
    return 2;
  }
  if (shards < 1 || shard_threads < 1) {
    std::cerr << "--shards and --shard-threads must be >= 1\n";
    return 2;
  }
  if (shards > 1) {
    if (qstat || dry_run_iteration || serve || replications > 1 ||
        !csv_path.empty()) {
      std::cerr << "--shards is incompatible with --qstat, "
                   "--dry-run-iteration, --serve, --replications > 1 and "
                   "--csv (per-shard job indices are not comparable; use "
                   "dbsd for a sharded service)\n";
      return 2;
    }
  }

  wl::Workload workload;
  if (!trace_path.empty()) {
    workload = wl::trace_from_string(slurp(trace_path));
    if (workload.jobs.empty()) {
      std::cerr << "trace contains no jobs\n";
      return 1;
    }
  }

  batch::SystemConfig system_config;
  if (!config_path.empty()) {
    const cfg::ParseResult parsed = cfg::parse_maui_config(slurp(config_path));
    for (const cfg::ParseIssue& issue : parsed.issues)
      std::cerr << config_path << ":" << issue.line << ": " << issue.message
                << "\n";
    if (!parsed.ok()) return 1;
    system_config.scheduler = parsed.config;
  }
  // Streaming SWF replay: open the trace and read its header directives
  // now, so --nodes 0 can size the cluster from MaxProcs.
  std::ifstream swf_in;
  std::unique_ptr<wl::swf::SwfSource> swf_source;
  if (!swf_path.empty()) {
    swf_in.open(swf_path, std::ios::binary);
    if (!swf_in) {
      std::cerr << "cannot open " << swf_path << "\n";
      return 1;
    }
    wl::swf::SwfSourceConfig swf_config;
    swf_config.policy = swf_strict ? wl::swf::MalformedPolicy::Strict
                                   : wl::swf::MalformedPolicy::Skip;
    swf_config.overlay_dynamic_fraction = swf_overlay_pct / 100.0;
    swf_config.overlay_seed = swf_seed;
    swf_source = std::make_unique<wl::swf::SwfSource>(swf_in, swf_config);
    try {
      nodes = swf_source->size_cluster(nodes, cores_per_node, swf_path);
    } catch (const precondition_error& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    // Multi-month traces only fit if finished jobs release their storage
    // and metrics fold into aggregates as the replay advances.
    system_config.retire_finished_jobs = !swf_materialize;
    system_config.streaming_metrics = !swf_materialize;
  }
  if (nodes == 0) {
    const CoreCount total =
        workload.total_cores > 0 ? workload.total_cores : 128;
    nodes = static_cast<std::size_t>((total + cores_per_node - 1) /
                                     cores_per_node);
  }
  // Operator tooling always records the per-stage breakdown; the span
  // overhead only matters in benchmark hot loops.
  system_config.scheduler.stage_timing = true;
  system_config.cluster.node_count = nodes;
  system_config.cluster.cores_per_node = cores_per_node;

  obs::Registry registry;
  obs::Tracer tracer;
  if (!trace_out_path.empty()) {
    if (!tracer.open(trace_out_path, trace_format)) {
      std::cerr << "cannot open " << trace_out_path << "\n";
      return 1;
    }
  }

  // Every replication (even a single one) owns an isolated system +
  // registry; registries merge into `registry` in replication order, so
  // the metrics snapshot is byte-identical for every --jobs value. The
  // event trace is attached to replication 0 only: other replications are
  // identical re-runs and concurrent writers would interleave events.
  const auto capacity =
      static_cast<std::int64_t>(nodes) * static_cast<std::int64_t>(cores_per_node);
  obs::rec::Manifest manifest;
  metrics::WorkloadSummary summary;
  std::vector<metrics::WaitPoint> waits;
  std::vector<metrics::WorkloadSummary> shard_summaries;
  std::vector<std::uint64_t> shard_routed_jobs;
  if (shards > 1) {
    batch::ShardConfig shard_config;
    shard_config.shards = shards;
    shard_config.map = shard_map;
    shard_config.policy = shard_by;
    shard_config.threads = shard_threads;
    batch::ShardedSystem sharded(system_config, shard_config);
    std::vector<std::unique_ptr<obs::rec::FlightRecorder>> recorders;
    if (!record_out_path.empty()) {
      for (std::size_t k = 0; k < shards; ++k) {
        recorders.push_back(std::make_unique<obs::rec::FlightRecorder>());
        const std::string path = obs::rec::shard_path(record_out_path, k);
        if (!recorders.back()->open(path, capacity)) {
          std::cerr << "cannot open " << path << "\n";
          return 1;
        }
      }
    }
    // The event trace attaches to shard 0 only — concurrent shard writers
    // would interleave events nondeterministically.
    for (std::size_t k = 0; k < shards; ++k) {
      obs::Tracer* shard_tracer =
          k == 0 && !trace_out_path.empty() ? &tracer : nullptr;
      obs::rec::FlightRecorder* shard_recorder =
          recorders.empty() ? nullptr : recorders[k].get();
      if (shard_tracer != nullptr || shard_recorder != nullptr)
        sharded.set_shard_sinks(k, shard_tracer, shard_recorder);
    }
    if (swf_source != nullptr && !swf_materialize) {
      sharded.submit_stream(*swf_source, swf_window);
    } else {
      if (swf_source != nullptr) {
        wl::SubmitSpec s;
        while (swf_source->next(s)) workload.jobs.push_back(s);
      }
      sharded.submit_workload(workload);
    }
    sharded.run();
    summary = sharded.summary();
    sharded.merge_registries(registry);
    for (std::size_t k = 0; k < shards; ++k) {
      shard_summaries.push_back(sharded.shard_summary(k));
      shard_routed_jobs.push_back(sharded.router().routed_jobs(k));
    }
    for (std::size_t k = 0; k < recorders.size(); ++k) {
      obs::rec::FlightRecorder& recorder = *recorders[k];
      obs::rec::ManifestShard shard;
      shard.path = recorder.path();
      shard.replication = k;
      shard.records = recorder.records_written();
      shard.first_t_us = recorder.first_t_us();
      shard.last_t_us = recorder.last_t_us();
      if (!recorder.finalize()) {
        std::cerr << "cannot finalize " << shard.path << "\n";
        return 1;
      }
      manifest.shards.push_back(std::move(shard));
    }
  } else if (qstat || dry_run_iteration || swf_source != nullptr) {
    obs::rec::FlightRecorder recorder;
    if (!record_out_path.empty() &&
        !recorder.open(record_out_path, capacity)) {
      std::cerr << "cannot open " << record_out_path << "\n";
      return 1;
    }
    svc::IngestQueue ingest;  // --serve only; declared first to outlive
                              // the system's service loop
    batch::BatchSystem system(system_config);
    system.set_sinks({trace_out_path.empty() ? nullptr : &tracer, &registry,
                      recorder.is_open() ? &recorder : nullptr});
    if (swf_source != nullptr) {
      if (swf_materialize) {
        // Debug/equivalence path: drain the source into a Workload and
        // submit it the classic way (per-job records retained).
        wl::SubmitSpec s;
        while (swf_source->next(s)) workload.jobs.push_back(s);
        system.submit_workload(workload);
      } else if (serve) {
        // Service-mode smoke path: the same jobs flow through the
        // concurrent ingest queue + service loop (in-memory, no state
        // dir) instead of submit_stream, proving the service core
        // reproduces the one-shot replay.
        svc::ServiceConfig service_config;
        service_config.tick = Duration::seconds(3600);
        system.attach_ingest(ingest, service_config);
        std::thread producer([&]() {
          wl::SubmitSpec s;
          while (swf_source->next(s))
            ingest.submit(s.at, std::move(s.spec), s.behavior);
          ingest.close();
        });
        system.run_service();
        producer.join();
      } else {
        system.submit_stream(*swf_source, swf_window);
      }
    } else {
      system.submit_workload(workload);
    }
    // Pause mid-run (after the first quarter of the submission window) for
    // the status snapshot / what-if pass before finishing the simulation.
    const Time snapshot =
        swf_source != nullptr
            ? Time::epoch()
            : workload.jobs.back().at - (workload.jobs.back().at -
                                         workload.jobs.front().at) / 4 * 3;
    if (qstat || dry_run_iteration) system.run_until(snapshot);
    if (qstat)
      std::cout << "--- qstat @ " << snapshot.to_string() << " ---\n"
                << rms::format_qstat(system.server()) << "\n"
                << rms::format_pbsnodes(system.server()) << "\n"
                << rms::format_load_summary(system.server()) << "\n\n";
    if (dry_run_iteration) {
      const std::vector<rms::Decision> decisions =
          system.scheduler().dry_run_iteration();
      std::cout << "--- dry-run iteration @ " << snapshot.to_string() << " ("
                << decisions.size() << " decisions, not applied) ---\n";
      std::string line;
      for (const rms::Decision& d : decisions) {
        line.clear();
        rms::decision_to_json(d, line);
        std::cout << line << "\n";
      }
      std::cout << "\n";
    }
    system.run();
    summary = metrics::summarize(system.recorder());
    if (!system.recorder().streaming())
      waits = metrics::wait_series(system.recorder());
    if (recorder.is_open()) {
      obs::rec::ManifestShard shard;
      shard.path = recorder.path();
      shard.records = recorder.records_written();
      shard.first_t_us = recorder.first_t_us();
      shard.last_t_us = recorder.last_t_us();
      if (!recorder.finalize()) {
        std::cerr << "cannot finalize " << record_out_path << "\n";
        return 1;
      }
      manifest.shards.push_back(std::move(shard));
    }
  } else {
    batch::ParallelRunner runner(run_jobs);
    const auto run_one = [&](std::size_t index,
                             obs::Registry& replication_registry,
                             obs::rec::FlightRecorder* recorder) {
      batch::BatchSystem system(system_config);
      system.set_sinks({index == 0 && !trace_out_path.empty() ? &tracer
                                                              : nullptr,
                        &replication_registry, recorder});
      system.submit_workload(workload);
      system.run();
      batch::RunResult result;
      result.label = trace_path;
      result.summary = metrics::summarize(system.recorder());
      result.waits = metrics::wait_series(system.recorder());
      result.scheduler_iterations = system.scheduler().iterations();
      result.events = system.simulator().events_fired();
      return result;
    };
    std::vector<batch::RunResult> results;
    if (record_out_path.empty()) {
      results = runner.map<batch::RunResult>(
          replications,
          [&](std::size_t index, obs::Registry& replication_registry) {
            return run_one(index, replication_registry, nullptr);
          },
          &registry);
    } else {
      try {
        results = runner.map_recorded<batch::RunResult>(
            replications, record_out_path, capacity,
            [&](std::size_t index, obs::Registry& replication_registry,
                obs::rec::FlightRecorder& recorder) {
              return run_one(index, replication_registry, &recorder);
            },
            &registry, manifest);
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 1;
      }
    }
    summary = results.front().summary;
    waits = std::move(results.front().waits);
  }

  const std::string& workload_label =
      trace_path.empty() ? swf_path : trace_path;
  TextTable table(metrics::performance_header());
  table.add_row(metrics::performance_row(workload_label, summary, 0.0));
  std::cout << table.to_string();
  std::cout << "avg wait " << summary.avg_wait.to_hms() << ", max wait "
            << summary.max_wait.to_hms() << ", backfilled "
            << summary.backfilled_jobs << ", evolving "
            << summary.evolving_jobs << " (satisfied "
            << summary.satisfied_dyn_jobs << ")\n";
  if (swf_source != nullptr) {
    const wl::swf::SwfParser& parser = swf_source->parser();
    std::cout << "swf replay: " << swf_source->yielded() << " jobs from "
              << parser.records() << " records (" << parser.malformed()
              << " malformed, " << swf_source->unusable() << " unusable, "
              << swf_source->clamped_cores() << " width-clamped, "
              << swf_source->clamped_times() << " time-clamped), overlay "
              << swf_source->overlay_marked() << " dynamic, "
              << swf_source->distinct_users() << " users / "
              << swf_source->distinct_groups() << " groups / "
              << swf_source->distinct_queues() << " queues, window "
              << (swf_materialize ? std::string("materialized")
                                  : std::to_string(swf_window))
              << "\n";
  }
  if (shards > 1) {
    TextTable shard_table(metrics::performance_header());
    for (std::size_t k = 0; k < shard_summaries.size(); ++k)
      shard_table.add_row(metrics::performance_row(
          "part" + std::to_string(k), shard_summaries[k], 0.0));
    std::cout << shard_table.to_string();
    std::cout << "shard routing (" << core::to_string(shard_by) << "):";
    for (std::size_t k = 0; k < shard_routed_jobs.size(); ++k)
      std::cout << " part" << k << "=" << shard_routed_jobs[k];
    std::cout << "; metrics merged across " << shards << " shards\n";
  }
  if (replications > 1)
    std::cout << replications << " replications on " << run_jobs
              << " thread(s); metrics merged across replications\n";
  if (stage_breakdown) print_stage_breakdown(registry);

  if (!csv_path.empty()) {
    TextTable csv({"submit_index", "name", "wait_seconds"});
    for (const auto& w : waits)
      csv.add_row({std::to_string(w.submit_index), w.name,
                   TextTable::num(w.wait.as_seconds(), 3)});
    std::ofstream out(csv_path);
    out << csv.to_csv();
    std::cout << "wrote per-job waits to " << csv_path << "\n";
  }

  if (!record_out_path.empty()) {
    // Shards are finalized; make the trace durable alongside them so the
    // record/trace pair on disk is consistent at this point.
    tracer.flush();
    std::cout << "recorded " << manifest.total_records() << " records to "
              << record_out_path;
    if (manifest.shards.size() > 1) {
      const std::string manifest_path = record_out_path + ".manifest.json";
      if (!manifest.write(manifest_path)) {
        std::cerr << "cannot open " << manifest_path << "\n";
        return 1;
      }
      std::cout << " (" << manifest.shards.size() << " shards, manifest "
                << manifest_path << ")";
    }
    std::cout << "\n";
  }
  if (!trace_out_path.empty()) {
    tracer.close();
    std::cout << "wrote " << tracer.events_emitted() << " trace events to "
              << trace_out_path << "\n";
  }
  if (!metrics_json_path.empty()) {
    if (metrics_json_path == "-") {
      registry.write_json(std::cout);
    } else if (!registry.write_json_file(metrics_json_path)) {
      std::cerr << "cannot open " << metrics_json_path << "\n";
      return 1;
    } else {
      std::cout << "wrote metrics snapshot to " << metrics_json_path << "\n";
    }
  }
  return 0;
}

// `dbsd`: the always-on batch service daemon.
//
//   dbsd --swf FILE --state-dir DIR [--config FILE] [--nodes N]
//        [--cores-per-node N] [--snapshot-every N] [--tick-ms MS]
//        [--throttle-ms MS] [--max-jobs N] [--max-ticks N]
//        [--swf-overlay-dynamic PCT] [--swf-seed S]
//        [--summary-json FILE|-] [--quiet]
//        [--shards K] [--shard-by hash|user|partition|least]
//        [--shard-map range|hash] [--shard-threads T]
//
// Unlike dbsim (one-shot: submit a workload, run, report) dbsd runs a
// service: a producer thread feeds the SWF trace through the concurrent
// ingest queue — exactly as qsub shims would — while the service loop
// drains, appends to the write-ahead log, schedules and snapshots. Kill it
// at any moment (SIGKILL included) and restart with the same --state-dir:
// it recovers from the newest snapshot, replays the WAL tail, verifies the
// re-made decisions byte-for-byte against the log, skips the trace records
// it already ingested, and continues. SIGTERM/SIGINT stop cleanly (final
// snapshot written).
//
// --state-dir "" runs the service without durability (ingest path only).
// --throttle-ms paces the producer (gives a crash window to CI);
// --max-jobs bounds the trace prefix; --summary-json emits the final
// workload summary with stable keys, so an interrupted-and-recovered run
// can be diffed against an uninterrupted one.
//
// --shards K runs the sharded service: the cluster's nodes split into K
// shards (each with its own scheduler, WAL and snapshots under
// <state-dir>/shard-<k>), submissions route deterministically by
// --shard-by, and the K shard loops tick concurrently on --shard-threads
// workers. Recovery stays per-shard and parallel; the summary JSON is the
// capacity-weighted merge and is byte-identical for every --shard-threads.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "batch/batch_system.hpp"
#include "batch/sharded_system.hpp"
#include "cli_number.hpp"
#include "common/assert.hpp"
#include "config/maui_config.hpp"
#include "metrics/report.hpp"
#include "svc/ingest.hpp"
#include "svc/service_loop.hpp"
#include "svc/sharded_service.hpp"
#include "workload/swf/swf_source.hpp"

using namespace dbs;

namespace {

svc::ServiceLoop* g_service = nullptr;
svc::ShardedService* g_sharded = nullptr;
std::atomic<bool> g_stop{false};

void handle_signal(int) {
  // All flags are plain atomic stores: async-signal-safe.
  g_stop.store(true);
  if (g_service != nullptr) g_service->stop();
  if (g_sharded != nullptr) g_sharded->stop();
}

int usage(const char* argv0, int code) {
  std::cerr
      << "usage: " << argv0
      << " --swf FILE [--state-dir DIR] [--config FILE] [--nodes N]\n"
         "       [--cores-per-node N] [--snapshot-every N] [--tick-ms MS]\n"
         "       [--throttle-ms MS] [--max-jobs N] [--max-ticks N]\n"
         "       [--swf-overlay-dynamic PCT] [--swf-seed S]\n"
         "       [--summary-json FILE|-] [--quiet]\n"
         "       [--shards K] [--shard-by hash|user|partition|least]\n"
         "       [--shard-map range|hash] [--shard-threads T]\n";
  return code;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_summary_json(std::ostream& os, const metrics::WorkloadSummary& s,
                        std::uint64_t wal_ingest, std::uint64_t wal_decisions,
                        bool recovered) {
  os << "{\n"
     << "  \"jobs_submitted\": " << s.jobs_submitted << ",\n"
     << "  \"jobs_completed\": " << s.jobs_completed << ",\n"
     << "  \"evolving_jobs\": " << s.evolving_jobs << ",\n"
     << "  \"satisfied_dyn_jobs\": " << s.satisfied_dyn_jobs << ",\n"
     << "  \"granted_dyn_requests\": " << s.granted_dyn_requests << ",\n"
     << "  \"backfilled_jobs\": " << s.backfilled_jobs << ",\n"
     << "  \"makespan_us\": " << s.makespan.as_micros() << ",\n"
     << "  \"avg_wait_us\": " << s.avg_wait.as_micros() << ",\n"
     << "  \"max_wait_us\": " << s.max_wait.as_micros() << ",\n"
     << "  \"avg_turnaround_us\": " << s.avg_turnaround.as_micros() << ",\n"
     << "  \"wal_ingest\": " << wal_ingest << ",\n"
     << "  \"wal_decisions\": " << wal_decisions << ",\n"
     << "  \"recovered\": " << (recovered ? "true" : "false") << "\n"
     << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string swf_path;
  std::string state_dir;
  std::string config_path;
  std::string summary_json;
  std::size_t nodes = 0;
  CoreCount cores_per_node = 8;
  std::uint64_t snapshot_every = 256;
  std::int64_t tick_ms = 3'600'000;  // accelerated replay: 1 h per cycle
  std::int64_t throttle_ms = 0;
  std::uint64_t max_jobs = 0;
  std::uint64_t max_ticks = 0;
  double overlay_pct = 0.0;
  std::uint64_t overlay_seed = 2014;
  bool quiet = false;
  std::size_t shards = 1;
  std::size_t shard_threads = 1;
  core::RoutePolicy shard_by = core::RoutePolicy::UserHash;
  batch::ShardMapKind shard_map = batch::ShardMapKind::Range;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--swf") swf_path = next();
    else if (arg == "--state-dir") state_dir = next();
    else if (arg == "--config") config_path = next();
    else if (arg == "--nodes") cli::parse_into(nodes, arg, next());
    else if (arg == "--cores-per-node")
      cli::parse_into(cores_per_node, arg, next());
    else if (arg == "--snapshot-every")
      cli::parse_into(snapshot_every, arg, next());
    else if (arg == "--tick-ms") cli::parse_into(tick_ms, arg, next());
    else if (arg == "--throttle-ms") cli::parse_into(throttle_ms, arg, next());
    else if (arg == "--max-jobs") cli::parse_into(max_jobs, arg, next());
    else if (arg == "--max-ticks") cli::parse_into(max_ticks, arg, next());
    else if (arg == "--swf-overlay-dynamic")
      cli::parse_into(overlay_pct, arg, next());
    else if (arg == "--swf-seed") cli::parse_into(overlay_seed, arg, next());
    else if (arg == "--summary-json") summary_json = next();
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--shards") cli::parse_into(shards, arg, next());
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
    else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  if (swf_path.empty()) return usage(argv[0], 2);
  if (tick_ms <= 0) {
    std::cerr << "--tick-ms must be >= 1\n";
    return 2;
  }
  if (cores_per_node < 1) {
    std::cerr << "--cores-per-node must be >= 1\n";
    return 2;
  }
  if (shards < 1 || shard_threads < 1) {
    std::cerr << "--shards and --shard-threads must be >= 1\n";
    return 2;
  }

  std::ifstream swf_in(swf_path, std::ios::binary);
  if (!swf_in) {
    std::cerr << "cannot open " << swf_path << "\n";
    return 1;
  }
  wl::swf::SwfSourceConfig swf_config;
  swf_config.overlay_dynamic_fraction = overlay_pct / 100.0;
  swf_config.overlay_seed = overlay_seed;
  wl::swf::SwfSource source(swf_in, swf_config);
  try {
    nodes = source.size_cluster(nodes, cores_per_node, swf_path);
  } catch (const precondition_error& e) {
    std::cerr << e.what() << "\n";
    return 1;
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
  system_config.cluster.node_count = nodes;
  system_config.cluster.cores_per_node = cores_per_node;
  // The durable service requires both: snapshots are taken at quiescent
  // drain boundaries (zero latency) and must stay bounded (streaming).
  system_config.latency = rms::LatencyModel::zero();
  system_config.streaming_metrics = true;
  system_config.retire_finished_jobs = true;

  svc::ServiceConfig service_config;
  service_config.state_dir = state_dir;
  service_config.snapshot_every = snapshot_every;
  service_config.tick = Duration::millis(tick_ms);
  service_config.wall_sleep = std::chrono::microseconds(100);
  service_config.max_ticks = max_ticks;

  if (shards > 1) {
    batch::ShardConfig shard_config;
    shard_config.shards = shards;
    shard_config.map = shard_map;
    shard_config.policy = shard_by;
    shard_config.threads = shard_threads;
    batch::ShardedSystem sharded(system_config, shard_config);
    svc::IngestQueue ingest;
    svc::ShardedService service(sharded, ingest, service_config);

    bool recovered = false;
    if (!state_dir.empty()) {
      recovered = service.open();
      if (!quiet && recovered)
        std::cerr << "dbsd: recovered state from " << state_dir << "/shard-* ("
                  << service.wal_ingest_total() << " ingested, "
                  << service.wal_decision_total() << " decisions)\n";
    }

    g_sharded = &service;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    // Routing is deterministic and the driver routes in global ticket
    // order (= trace order), so the first `skip` trace records are exactly
    // the ones the shard WALs already hold.
    const std::uint64_t skip = service.wal_ingest_total();
    std::thread producer([&]() {
      wl::SubmitSpec s;
      std::uint64_t yielded = 0;
      while (!g_stop.load(std::memory_order_acquire)) {
        if (!source.next(s)) break;
        ++yielded;
        if (yielded <= skip) continue;  // already in a shard WAL
        if (max_jobs != 0 && yielded > max_jobs) break;
        ingest.submit(s.at, std::move(s.spec), s.behavior);
        if (throttle_ms > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
      }
      ingest.close();
    });

    const std::uint64_t ticks = service.run();
    g_stop.store(true);
    producer.join();

    const metrics::WorkloadSummary summary = sharded.summary();
    if (!quiet) {
      std::cerr << "dbsd: " << summary.jobs_submitted << " submitted, "
                << summary.jobs_completed << " completed, "
                << service.wal_decision_total() << " decisions, "
                << service.snapshots_written() << " snapshots, " << ticks
                << " ticks across " << shards << " shards"
                << (service.drained() ? "" : " (stopped before drain)")
                << "\n";
    }
    if (!summary_json.empty()) {
      if (summary_json == "-") {
        write_summary_json(std::cout, summary, service.wal_ingest_total(),
                           service.wal_decision_total(), recovered);
      } else {
        std::ofstream out(summary_json);
        if (!out) {
          std::cerr << "cannot open " << summary_json << "\n";
          return 1;
        }
        write_summary_json(out, summary, service.wal_ingest_total(),
                           service.wal_decision_total(), recovered);
      }
    }
    return 0;
  }

  batch::BatchSystem system(system_config);
  svc::IngestQueue ingest;
  svc::ServiceLoop& service = system.attach_ingest(ingest, service_config);

  bool recovered = false;
  if (!state_dir.empty()) {
    recovered = system.open_state();
    if (!quiet && recovered)
      std::cerr << "dbsd: recovered state from " << state_dir << " ("
                << service.wal_ingest_total() << " ingested, "
                << service.wal_decision_total() << " decisions)\n";
  }

  g_service = &service;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // The producer: replays the trace through the ingest queue the way qsub
  // shims would, skipping what a previous life already made durable.
  const std::uint64_t skip = service.wal_ingest_total();
  std::thread producer([&]() {
    wl::SubmitSpec s;
    std::uint64_t yielded = 0;
    while (!g_stop.load(std::memory_order_acquire)) {
      if (!source.next(s)) break;
      ++yielded;
      if (yielded <= skip) continue;  // already in the WAL
      if (max_jobs != 0 && yielded > max_jobs) break;
      ingest.submit(s.at, std::move(s.spec), s.behavior);
      if (throttle_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
    }
    ingest.close();
  });

  const std::uint64_t ticks = system.run_service();
  g_stop.store(true);
  producer.join();

  const metrics::WorkloadSummary summary = metrics::summarize(system.recorder());
  if (!quiet) {
    std::cerr << "dbsd: " << summary.jobs_submitted << " submitted, "
              << summary.jobs_completed << " completed, "
              << service.wal_decision_total() << " decisions, "
              << service.snapshots_written() << " snapshots, " << ticks
              << " ticks"
              << (service.drained() ? "" : " (stopped before drain)") << "\n";
  }
  if (!summary_json.empty()) {
    if (summary_json == "-") {
      write_summary_json(std::cout, summary, service.wal_ingest_total(),
                         service.wal_decision_total(), recovered);
    } else {
      std::ofstream out(summary_json);
      if (!out) {
        std::cerr << "cannot open " << summary_json << "\n";
        return 1;
      }
      write_summary_json(out, summary, service.wal_ingest_total(),
                         service.wal_decision_total(), recovered);
    }
  }
  return 0;
}

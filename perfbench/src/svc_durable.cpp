// svc_durable: the durable service path. A generated SWF trace is fed into
// svc::IngestQueue from one producer thread while this thread calls
// ServiceLoop::tick(), with a WAL and fsync, a 1 h tick, zero latency and
// streaming metrics (the `dbsd` defaults), and a snapshot every 4096
// decisions (the ServiceConfig default). `dbsd` snapshots every 256
// decisions, ~270 snapshot writes and deletions per pass; on a shared disk
// those made the burst capacity swing by 20-50% between runs. One work
// item is one service pass in three phases:
//
//   1. open loop: kOpenJobs submissions at a fixed kOpenRate, each timed
//      from when it was due;
//   2. closed burst: once every open-loop record is durable, the state
//      directory is copied (what a `kill -9` at this tick boundary would
//      leave) and the producer pushes kBurstJobs as fast as it can while
//      keeping at most kBurstWindow submissions not yet durable;
//   3. recovery: ServiceLoop::open() on fresh copies of that crash copy,
//      which restores a snapshot and re-executes the WAL tail, verifying
//      every re-made decision byte for byte.
#include <atomic>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "metrics/report.hpp"
#include "svc/ingest.hpp"
#include "svc/service_loop.hpp"
#include "svc/state_store.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace perfbench {
namespace {

using namespace dbs;
namespace fs = std::filesystem;

constexpr std::uint64_t kOpenJobs = 10000;
constexpr std::uint64_t kOpenRate = 20000;  ///< jobs per second
constexpr std::uint64_t kBurstJobs = 70000;
/// Burst submissions in flight (submitted, not yet durable): a closed loop
/// of this many clients. Above a tick's batch, so the service stays
/// saturated, while the ingest queue — and peak RSS — stay bounded.
constexpr std::uint64_t kBurstWindow = 8192;
constexpr std::uint64_t kJobs = kOpenJobs + kBurstJobs;
constexpr int kRecoveries = 3;
/// Passes cycle through this many traces, seeded from --seed, so a run's
/// medians do not hang on one trace's queueing.
constexpr std::uint64_t kPassTraces = 8;
/// Pause between ticks while the ingest is open (dbsd's wall_sleep).
constexpr auto kTickPause = std::chrono::microseconds(100);

batch::SystemConfig service_system_config(CoreCount total_cores) {
  batch::SystemConfig config;
  config.cluster.cores_per_node = 8;
  config.cluster.node_count = static_cast<std::size_t>(
      (total_cores + config.cluster.cores_per_node - 1) /
      config.cluster.cores_per_node);
  config.latency = rms::LatencyModel::zero();
  config.streaming_metrics = true;
  config.retire_finished_jobs = true;
  return config;
}

svc::ServiceConfig service_config(const std::string& state_dir) {
  svc::ServiceConfig config;
  config.state_dir = state_dir;
  config.snapshot_every = 4096;
  config.tick = Duration::hours(1);
  return config;
}

void wait_until(std::int64_t due_ns, const std::atomic<bool>& abort) {
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= due_ns || abort.load(std::memory_order_relaxed)) return;
    if (due_ns - now > 200'000)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 100'000));
  }
}

/// Everything one pass owns, built during set-up.
struct Pass {
  Pass(const wl::swf::SwfGenParams& gen, const std::string& state_dir,
       bool stage_timing)
      : in(trace_text(gen)), source(in, wl::swf::SwfSourceConfig{}) {
    const wl::swf::SwfHeader& header = source.header();
    batch::SystemConfig config =
        service_system_config(static_cast<CoreCount>(header.max_procs));
    config.scheduler.stage_timing = stage_timing;
    system = std::make_unique<batch::BatchSystem>(config);
    source.set_max_cores(system->cluster().total_cores());
    system->set_sinks({nullptr, &registry});
    system->server().add_observer(&probe);
    probe.start_ns.assign(kJobs, 0);
    probe.mark_segments = false;
    service = &system->attach_ingest(ingest, service_config(state_dir));
    service->open();
  }

  static std::string trace_text(const wl::swf::SwfGenParams& gen) {
    std::ostringstream out;
    wl::swf::generate_swf(out, gen);
    return std::move(out).str();
  }

  std::istringstream in;
  wl::swf::SwfSource source;
  obs::Registry registry;
  JobProbe probe;
  svc::IngestQueue ingest;
  std::unique_ptr<batch::BatchSystem> system;  ///< dies before probe, ingest
  svc::ServiceLoop* service = nullptr;
};

/// The producer thread: the open-loop phase, a wait for the go signal,
/// then the burst. Joined by the destructor, which first aborts any wait.
class Producer {
 public:
  Producer(Pass& pass, bool traced, std::uint32_t run)
      : pass_(pass), traced_(traced), run_(run) {
    submit_ns.assign(kJobs, 0);
    late_ns.reserve(kOpenJobs);
    thread_ = std::thread([this] { body(); });
  }
  ~Producer() {
    abort_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  void go() { go_.store(true, std::memory_order_release); }
  /// Publishes the service's durable count after a tick.
  void set_durable(std::uint64_t records) {
    durable_.store(records, std::memory_order_release);
  }
  /// Joins the thread; rethrows what it threw.
  void finish() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

  std::vector<std::int64_t> submit_ns;  ///< due (open) or call (burst) time
  std::vector<double> late_ns;
  SpanLog log;  ///< svc.submit spans (traced passes)

 private:
  void submit(wl::SubmitSpec& s) {
    const std::int64_t begin = now_ns();
    pass_.ingest.submit(s.at, std::move(s.spec), s.behavior);
    if (traced_) log.add({kSubmit, run_, -1, begin, now_ns()});
  }

  void body() {
    try {
      wl::SubmitSpec s;
      const std::int64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < kOpenJobs; ++i) {
        if (!pass_.source.next(s)) throw std::runtime_error("trace too short");
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(i * 1'000'000'000 / kOpenRate);
        wait_until(due, abort_);
        late_ns.push_back(static_cast<double>(now_ns() - due));
        submit_ns[i] = due;
        submit(s);
      }
      while (!go_.load(std::memory_order_acquire) && !abort_.load())
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      for (std::uint64_t i = kOpenJobs; i < kJobs && !abort_.load(); ++i) {
        while (i - durable_.load(std::memory_order_acquire) >= kBurstWindow &&
               !abort_.load())
          std::this_thread::yield();
        if (!pass_.source.next(s)) throw std::runtime_error("trace too short");
        submit_ns[i] = now_ns();
        submit(s);
      }
    } catch (...) {
      error_ = std::current_exception();
    }
    pass_.ingest.close();
  }

  Pass& pass_;
  bool traced_;
  std::uint32_t run_;
  std::atomic<bool> go_{false};
  std::atomic<std::uint64_t> durable_{0};
  std::atomic<bool> abort_{false};
  std::exception_ptr error_;
  std::thread thread_;  ///< last: starts after everything it uses
};

struct TickMark {
  std::int64_t end_ns;
  std::uint64_t durable;  ///< wal_ingest_total() after the tick
};

/// One recovery: a fresh copy of the crash image, then a timed open().
/// Returns the open() wall time in seconds.
double recover(const std::string& crash_dir, const std::string& dir,
               CoreCount total_cores, Tracer& tracer, Outcome& out) {
  {
    const Tracer::Scope s = tracer.scope(kCrashCopy);
    fs::remove_all(dir);
    fs::copy(crash_dir, dir, fs::copy_options::recursive);
  }
  svc::IngestQueue ingest;
  std::optional<batch::BatchSystem> system;
  svc::ServiceLoop* service = nullptr;
  {
    const Tracer::Scope s = tracer.scope(kSetup);
    system.emplace(service_system_config(total_cores));
    service = &system->attach_ingest(ingest, service_config(dir));
  }
  const std::int64_t begin = now_ns();
  bool recovered = false;
  std::string error;
  try {
    const Tracer::Scope s = tracer.scope(kRecovery);
    recovered = service->open();
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double seconds = static_cast<double>(now_ns() - begin) / 1e9;
  const std::uint64_t records = service->wal_ingest_total();
  out.check(error.empty() && recovered && records == kOpenJobs,
            error.empty() ? "recovery restored " + std::to_string(records) +
                                " ingest records"
                          : "recovery failed: " + error);
  ingest.close();
  return seconds;
}

}  // namespace

Outcome run_svc_durable(const Options& options) {
  const std::string state_dir = options.out_dir + "/svc_state";
  const std::string crash_dir = options.out_dir + "/svc_crash";
  const std::string recover_dir = options.out_dir + "/svc_recover";

  Outcome out;
  Layers layers;
  SpanLog log = make_span_log();
  SpanLog kept = make_span_log();
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> run_ms;
  std::vector<double> capacities;
  std::vector<double> ack_us;
  std::vector<double> decided_us;
  std::vector<double> recovery_s;
  std::vector<double> late_us;
  std::uint64_t undecided_in_open_phase = 0;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::uint32_t min_items = options.trace ? 2 : 1;
  for (std::uint32_t item = 0; item < min_items || now_ns() < deadline;
       ++item) {
    const bool traced = options.trace && item % 2 == 1;
    tracer.log = traced ? &log : nullptr;
    tracer.run = item;
    wl::swf::SwfGenParams gen;
    gen.jobs = kJobs;
    gen.seed = options.seed * kPassTraces + item % kPassTraces;
    fs::remove_all(state_dir);
    fs::remove_all(crash_dir);

    const std::int64_t item_begin = now_ns();
    std::unique_ptr<Pass> pass;
    {
      const Tracer::Scope s = tracer.scope(kSetup);
      pass = std::make_unique<Pass>(gen, state_dir, traced);
    }
    setup_s.push_back(static_cast<double>(now_ns() - item_begin) / 1e9);
    std::optional<SchedulerProbe> sched;
    if (traced) sched.emplace(*pass->system, tracer);
    svc::ServiceLoop& service = *pass->service;
    const CoreCount total_cores = pass->system->cluster().total_cores();

    std::vector<TickMark> marks;
    std::vector<double> tick_us;
    std::vector<double> snapshot_tick_us;
    std::uint64_t sync_ticks = 0;
    std::int64_t burst_begin = 0;
    std::uint64_t finished_before_burst = 0;
    Producer producer(*pass, traced, item);
    for (;;) {
      const std::uint64_t durable_before = service.wal_ingest_total();
      const std::uint64_t snapshots_before = service.snapshots_written();
      const std::int64_t tick_begin = now_ns();
      {
        const Tracer::Scope s = tracer.scope(kTick);
        service.tick();
      }
      const std::int64_t tick_end = now_ns();
      const std::uint64_t durable = service.wal_ingest_total();
      marks.push_back({tick_end, durable});
      producer.set_durable(durable);
      tick_us.push_back(static_cast<double>(tick_end - tick_begin) / 1e3);
      if (durable > durable_before) ++sync_ticks;
      if (service.snapshots_written() > snapshots_before)
        snapshot_tick_us.push_back(tick_us.back());

      if (burst_begin == 0 && durable == kOpenJobs) {
        // Every open-loop record is durable and the producer waits: copy
        // the state directory at this tick boundary as the crash image.
        {
          const Tracer::Scope s = tracer.scope(kCrashCopy);
          fs::copy(state_dir, crash_dir, fs::copy_options::recursive);
        }
        finished_before_burst = pass->probe.finished;
        pass->probe.finished = 0;
        pass->probe.mark_segments = true;
        burst_begin = now_ns();
        producer.go();
      }
      if (service.drained()) break;
      if (!pass->ingest.closed()) {
        const Tracer::Scope s = tracer.scope(kIdle);
        std::this_thread::sleep_for(kTickPause);
      }
    }
    const std::int64_t burst_end = now_ns();
    {
      const Tracer::Scope s = tracer.scope(kFinalize);
      service.finalize();
    }
    producer.finish();
    metrics::WorkloadSummary summary;
    {
      const Tracer::Scope s = tracer.scope(kSummarize);
      summary = metrics::summarize(pass->system->recorder());
    }

    const std::uint64_t finished = finished_before_burst + pass->probe.finished;
    out.check(service.wal_ingest_total() == kJobs && burst_begin != 0,
              "service made " + std::to_string(service.wal_ingest_total()) +
                  " of " + std::to_string(kJobs) + " submissions durable");
    out.check(finished == kJobs && summary.jobs_completed == kJobs &&
                  pass->probe.ids_in_order,
              "service completed " + std::to_string(summary.jobs_completed) +
                  " of " + std::to_string(kJobs) + " jobs");

    std::vector<double> pass_recoveries;
    for (int k = 0; k < kRecoveries; ++k)
      pass_recoveries.push_back(
          recover(crash_dir, recover_dir, total_cores, tracer, out));
    const double pass_recovery_s = median(pass_recoveries);
    const std::int64_t item_end = now_ns();

    const double burst_s = static_cast<double>(burst_end - burst_begin) / 1e9;
    if (!traced) {
      // Ack: from when a submission was due to the end of the first tick
      // whose durable count covers it. Decided: from when it was due to the
      // job's first start, for open-loop jobs started before the burst
      // (later ones waited for the crash copy and the burst, which this
      // benchmark causes).
      std::size_t m = 0;
      for (std::uint64_t i = 0; i < kOpenJobs; ++i) {
        while (m < marks.size() && marks[m].durable <= i) ++m;
        if (m < marks.size())
          ack_us.push_back(
              static_cast<double>(marks[m].end_ns - producer.submit_ns[i]) /
              1e3);
        const std::int64_t started = pass->probe.start_ns[i];
        if (started != 0 && started < burst_begin)
          decided_us.push_back(
              static_cast<double>(started - producer.submit_ns[i]) / 1e3);
        else
          ++undecided_in_open_phase;
      }
      append_segments(burst_begin, pass->probe.segment_marks_ns, run_ms);
      capacities.push_back(static_cast<double>(pass->probe.finished) / burst_s);
      recovery_s.push_back(pass_recovery_s);
      for (const double ns : producer.late_ns) late_us.push_back(ns / 1e3);
      layers.untraced_item_s.push_back(burst_s);
      continue;
    }
    layers.traced_item_s.push_back(burst_s);
    ++layers.items;
    layers.wall_ns += item_end - item_begin;
    layers.add_system(*pass->system, *sched, pass->probe, pass->registry);
    layers.tick_us.insert(layers.tick_us.end(), tick_us.begin(), tick_us.end());
    layers.snapshot_tick_us.insert(layers.snapshot_tick_us.end(),
                                   snapshot_tick_us.begin(),
                                   snapshot_tick_us.end());
    layers.sync_ticks += sync_ticks;
    layers.jobs += kJobs;
    layers.wal_bytes += fs::file_size(svc::wal_path(state_dir));
    layers.decisions += service.wal_decision_total();
    layers.recovery_wal_bytes += fs::file_size(svc::wal_path(crash_dir));
    for (const double ns : producer.late_ns)
      layers.gen_late_us.push_back(ns / 1e3);
    for (const Span& s : producer.log.spans()) log.add(s);
    layers.fold(log, kept);
  }
  fs::remove_all(state_dir);
  fs::remove_all(crash_dir);
  fs::remove_all(recover_dir);

  out.note("samples.items", static_cast<double>(setup_s.size()), "count");
  out.note("samples.ack", static_cast<double>(ack_us.size()), "count");
  out.note("samples.decided", static_cast<double>(decided_us.size()), "count");
  out.note("svc.undecided_before_burst",
           static_cast<double>(undecided_in_open_phase), "count");
  if (options.trace) {
    layers.run_ms = std::move(run_ms);
    layers.ack_us = std::move(ack_us);
    layers.decided_us = std::move(decided_us);
    layers.recovery_s = std::move(recovery_s);
    emit_layers(layers, out);
    write_spans(kept, options);
  } else {
    emit_end_to_end(setup_s, median(capacities), run_ms, out);
    out.note("svc.ack_us_p50", percentile(ack_us, 0.5), "us");
    out.note("svc.ack_us_p99", percentile(ack_us, 0.99), "us");
    out.note("svc.decided_us_p50", percentile(decided_us, 0.5), "us");
    out.note("svc.decided_us_p99", percentile(decided_us, 0.99), "us");
    out.note("svc.recovery_s", median(recovery_s), "s");
    out.note("bench.gen_late_us_p99", percentile(late_us, 0.99), "us");
  }
  return out;
}

}  // namespace perfbench

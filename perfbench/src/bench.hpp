// Shared plumbing of the end-to-end benchmark: options, the result a
// workload reports, spans around calls into the library, and the probes
// that observe the library from outside (a ServerObserver and a wrapped
// scheduler trigger).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/batch_system.hpp"
#include "core/pipeline/iteration_context.hpp"
#include "obs/registry.hpp"
#include "rms/server.hpp"
#include "stats.hpp"
#include "workload/source.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: output checks counted against attempts,
/// the metrics of its mode (end-to-end untraced, per-layer traced) and
/// informational values (sample counts, figures not gated).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;

  /// Counts one checked operation; a false `ok` is a failure, logged to
  /// stderr with `what`.
  void check(bool ok, const std::string& what);
  void set(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Peak resident set of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();

/// Names of every span the benchmark records, in SpanLog id order.
enum SpanName : std::uint32_t {
  kSetup,      ///< bench.setup: building inputs and the system of one item
  kGenerate,   ///< workload.generate: wl::generate_esp
  kRun,        ///< batch.run: BatchSystem::submit_* + run()
  kNext,       ///< workload.next: SubmissionSource::next
  kIterate,    ///< core.iterate: MauiScheduler::iterate via the trigger
  kSummarize,  ///< metrics.summarize: metrics::summarize
  kTick,       ///< svc.tick: ServiceLoop::tick
  kIdle,       ///< svc.idle: the pause between ticks while ingest is open
  kSubmit,     ///< svc.submit: IngestQueue::submit (producer thread)
  kCrashCopy,  ///< bench.crash_copy: copying the state directory
  kFinalize,   ///< svc.finalize: ServiceLoop::finalize
  kRecovery,   ///< svc.recovery: ServiceLoop::open on the crash copy
  kSpanNames
};
/// A span log with every SpanName registered in order.
[[nodiscard]] SpanLog make_span_log();

/// Spans around calls into the library. Without a log every scope is a
/// no-op, so untraced items pay one branch per call.
class Tracer {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, std::uint32_t name, std::uint32_t run)
        : log_(log), index_(log != nullptr ? log->open(name, run) : 0) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_;
  };

  [[nodiscard]] Scope scope(SpanName name) { return {log, name, run}; }

  SpanLog* log = nullptr;  ///< null: untraced
  std::uint32_t run = 0;   ///< work item the next spans belong to
};

/// Observes job events from outside the scheduler: dynamic-request
/// counts, completion marks every `kSegmentJobs` finished jobs, and
/// (when `start_ns` is sized) the wall time of each job's first start,
/// indexed by submission order.
class JobProbe final : public dbs::rms::ServerObserver {
 public:
  /// Jobs per completion segment: one ESP run's worth.
  static constexpr std::uint64_t kSegmentJobs = 230;

  JobProbe() = default;
  JobProbe(const JobProbe&) = delete;  // the server holds this
  JobProbe& operator=(const JobProbe&) = delete;

  void on_submit(const dbs::rms::Job& job) override;
  void on_job_start(const dbs::rms::Job& job) override;
  void on_job_finish(const dbs::rms::Job& job) override;
  void on_dyn_request(const dbs::rms::Job&,
                      const dbs::rms::DynRequest&) override {
    ++dyn_requests;
  }
  void on_dyn_grant(const dbs::rms::Job&, const dbs::rms::DynRequest&,
                    dbs::CoreCount) override {
    ++dyn_granted;
  }
  void on_dyn_reject(const dbs::rms::Job&,
                     const dbs::rms::DynRequest&) override {
    ++dyn_rejected;
  }

  std::uint64_t submitted = 0;
  std::uint64_t finished = 0;
  std::uint64_t dyn_requests = 0;
  std::uint64_t dyn_granted = 0;
  std::uint64_t dyn_rejected = 0;
  /// False once a job id broke the "ids follow submission order" rule the
  /// start-time index relies on.
  bool ids_in_order = true;
  /// Completion marks are taken only while set.
  bool mark_segments = true;
  std::vector<std::int64_t> segment_marks_ns;
  /// Sized by the caller to record first-start wall times (0 = not yet).
  std::vector<std::int64_t> start_ns;

 private:
  std::uint64_t first_id_ = 0;
};

/// Re-registers the server's scheduler trigger around
/// scheduler().iterate() — the call MauiScheduler::attach() installs — so
/// each trigger-driven iteration becomes a core.iterate span and its
/// per-stage times (IterationStats::stage_wall_us, with stage_timing on)
/// are summed. Poll-timer iterations call iterate() directly and are only
/// counted, as the difference to scheduler().iterations().
class SchedulerProbe {
 public:
  SchedulerProbe(dbs::batch::BatchSystem& system, Tracer& tracer);
  SchedulerProbe(const SchedulerProbe&) = delete;  // the trigger holds this
  SchedulerProbe& operator=(const SchedulerProbe&) = delete;

  std::uint64_t traced = 0;
  std::array<double, dbs::core::kStageCount> stage_us{};
};

/// Wraps a SubmissionSource and spans every next() call.
class TimedSource final : public dbs::wl::SubmissionSource {
 public:
  TimedSource(dbs::wl::SubmissionSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  bool next(dbs::wl::SubmitSpec& out) override {
    const Tracer::Scope s = tracer_.scope(kNext);
    if (!inner_.next(out)) return false;
    ++records;
    return true;
  }
  std::uint64_t records = 0;

 private:
  dbs::wl::SubmissionSource& inner_;
  Tracer& tracer_;
};

/// Per-layer figures summed over the traced work items of a run. Each
/// workload fills what applies to it; the rest stays 0.
struct Layers {
  std::uint64_t items = 0;      ///< traced work items
  std::int64_t wall_ns = 0;     ///< their wall time, set-up included
  std::vector<NameTotals> spans = std::vector<NameTotals>(kSpanNames);
  std::vector<double> iterate_us;
  std::array<double, dbs::core::kStageCount> stage_us{};
  std::uint64_t iterations = 0;  ///< every iteration, traced or not
  std::uint64_t traced_iterations = 0;
  std::uint64_t records = 0;
  std::uint64_t events = 0;
  std::uint64_t dyn_requests = 0;
  std::uint64_t dyn_granted = 0;
  std::uint64_t dyn_rejected = 0;
  std::uint64_t replanned_jobs = 0;
  std::uint64_t plan_cache_hits = 0;
  // service
  std::vector<double> submit_ns;
  std::vector<double> tick_us;
  std::vector<double> snapshot_tick_us;
  std::uint64_t sync_ticks = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t jobs = 0;  ///< submissions, each synced to the WAL once
  std::uint64_t decisions = 0;
  std::uint64_t recovery_wal_bytes = 0;  ///< WAL size of each crash copy
  std::vector<double> gen_late_us;
  /// End-to-end samples reported ungated: run-time samples and service
  /// latencies, taken from the untraced items of a traced run.
  std::vector<double> run_ms;
  std::vector<double> ack_us;
  std::vector<double> decided_us;
  std::vector<double> recovery_s;
  /// Timed-part wall of each item, traced and untraced, for the overhead
  /// ratio.
  std::vector<double> traced_item_s;
  std::vector<double> untraced_item_s;

  /// Adds one traced item's scheduler, simulator and job-event counts.
  void add_system(dbs::batch::BatchSystem& system, const SchedulerProbe& sched,
                  const JobProbe& probe, const dbs::obs::Registry& registry);
  /// Folds one traced item's spans (then clears the log, keeping the
  /// first item's spans in `kept` for writing out).
  void fold(SpanLog& log, SpanLog& kept);
};

/// Adds the end-to-end metrics every workload reports (names in
/// BENCHMARK.json): the median set-up time of one work item, this
/// process's peak RSS, throughput and the median run time; the p99 run
/// time and the sample counts go to info.
void emit_end_to_end(const std::vector<double>& setup_s, double jobs_per_s,
                     const std::vector<double>& run_ms, Outcome& out);

/// Run-time samples from completion marks: the wall time from `begin` to
/// the first mark and between consecutive marks, in milliseconds.
void append_segments(std::int64_t begin_ns,
                     const std::vector<std::int64_t>& marks_ns,
                     std::vector<double>& run_ms);

/// Writes `spans` to <out_dir>/<workload>.spans.tsv (a warning on failure:
/// the dump is for inspection, the metrics are already derived).
void write_spans(const SpanLog& spans, const Options& options);

/// Adds every per-layer metric (names in BENCHMARK.json) to `out`.
void emit_layers(const Layers& layers, Outcome& out);

/// A counter of `registry`, 0 when it was never created.
[[nodiscard]] std::uint64_t counter_value(const dbs::obs::Registry& registry,
                                          const std::string& name);

Outcome run_replay_swf(const Options& options);
Outcome run_esp_dynamic(const Options& options);
Outcome run_svc_durable(const Options& options);

}  // namespace perfbench

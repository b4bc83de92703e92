// Durable-state building blocks in isolation: the snapshot codec (encode /
// decode / reject), capture_state/restore_state fidelity per component, the
// WAL writer/reader pair, torn-tail tolerance at every byte offset, and the
// state-directory policies (best-snapshot selection, pruning).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/batch_system.hpp"
#include "common/assert.hpp"
#include "metrics/report.hpp"
#include "svc/state_store.hpp"
#include "../testutil.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace dbs::svc {
namespace {

namespace fs = std::filesystem;

batch::SystemConfig durable_config() {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 4;
  cfg.latency = rms::LatencyModel::zero();
  cfg.streaming_metrics = true;
  return cfg;
}

wl::Workload make_workload(std::uint64_t jobs, std::uint64_t seed) {
  wl::swf::SwfGenParams gp;
  gp.jobs = jobs;
  gp.seed = seed;
  std::ostringstream out;
  wl::swf::generate_swf(out, gp);

  wl::swf::SwfSourceConfig scfg;
  scfg.overlay_dynamic_fraction = 0.3;
  std::istringstream in(out.str());
  wl::swf::SwfSource source(in, scfg);
  source.set_max_cores(8 * 8);

  wl::Workload workload;
  wl::SubmitSpec s;
  while (source.next(s)) workload.jobs.push_back(s);
  return workload;
}

/// Runs a real system just past its last arrival (every submission fired,
/// plenty still queued and running) and captures it there: a rich,
/// quiescent mid-flight state for codec and restore tests.
struct CapturedRun {
  std::unique_ptr<batch::BatchSystem> system;
  SystemState state;
  Time captured_at;
};

CapturedRun capture_mid_run(std::uint64_t jobs = 60, std::uint64_t seed = 11) {
  const wl::Workload workload = make_workload(jobs, seed);
  Time last_arrival;
  for (const auto& s : workload.jobs) last_arrival = max(last_arrival, s.at);

  CapturedRun run;
  run.system = std::make_unique<batch::BatchSystem>(durable_config());
  run.system->submit_workload(workload);
  run.captured_at = last_arrival + Duration::seconds(1);
  run.system->run_until(run.captured_at);
  run.state = capture_state(*run.system);
  run.state.last_admitted = last_arrival;
  run.state.wal_ingest = workload.jobs.size();
  run.state.wal_decisions = 12345;
  run.state.rng = {1, 2, 3, 4};
  return run;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("dbs_svc_test_" + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  fs::path dir_;
};

// --- snapshot codec --------------------------------------------------------

TEST(StateCodec, RoundTripsEveryComponent) {
  const CapturedRun run = capture_mid_run();
  const SystemState& s = run.state;
  // The capture is mid-flight, not trivial: queued jobs, live moms,
  // scheduler ledgers and metrics all non-empty.
  ASSERT_FALSE(s.jobs.empty());
  ASSERT_FALSE(s.moms.empty());
  ASSERT_FALSE(s.node_states.empty());

  const std::vector<unsigned char> bytes = encode_state(s);
  const SystemState d = decode_state(bytes);

  // Component by component first, so a codec regression names the layer it
  // broke instead of one opaque "states differ".
  EXPECT_EQ(d.now, s.now);
  EXPECT_EQ(d.next_job, s.next_job);
  EXPECT_EQ(d.next_request, s.next_request);
  EXPECT_TRUE(d.jobs == s.jobs);
  EXPECT_TRUE(d.dyn_fifo == s.dyn_fifo);
  EXPECT_TRUE(d.hints == s.hints);
  EXPECT_TRUE(d.node_states == s.node_states);
  EXPECT_TRUE(d.moms == s.moms);
  EXPECT_TRUE(d.scheduler == s.scheduler);
  EXPECT_TRUE(d.metrics == s.metrics);
  EXPECT_EQ(d.last_admitted, s.last_admitted);
  EXPECT_EQ(d.wal_ingest, s.wal_ingest);
  EXPECT_EQ(d.wal_decisions, s.wal_decisions);
  EXPECT_TRUE(d.rng == s.rng);
  EXPECT_TRUE(d == s);

  // Deterministic encoding: the same state encodes to the same bytes.
  EXPECT_EQ(encode_state(d), bytes);
}

TEST(StateCodec, RejectsBadMagicBadVersionAndTruncation) {
  const CapturedRun run = capture_mid_run(20, 3);
  std::vector<unsigned char> bytes = encode_state(run.state);

  {
    std::vector<unsigned char> bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_THROW(decode_state(bad), precondition_error);
  }
  {
    std::vector<unsigned char> bad = bytes;
    bad[4] ^= 0xFF;  // version word follows the magic
    EXPECT_THROW(decode_state(bad), precondition_error);
  }
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, bytes.size() / 2,
        bytes.size() - 1}) {
    EXPECT_THROW(decode_state(bytes.data(), keep), precondition_error)
        << "truncation to " << keep << " bytes must be rejected";
  }
}

/// The message decode_state throws for `bytes`, or "" if it decodes.
std::string decode_error(const std::vector<unsigned char>& bytes) {
  try {
    static_cast<void>(decode_state(bytes));
  } catch (const precondition_error& e) {
    return e.what();
  }
  return "";
}

TEST(StateCodec, RangeChecksNameTheFieldAndOffset) {
  const CapturedRun run = capture_mid_run(20, 3);
  const std::vector<unsigned char> bytes = encode_state(run.state);
  ASSERT_FALSE(run.state.jobs.empty());

  // The jobs count follows head (8), now (8), next_job and next_request.
  std::vector<unsigned char> bad = bytes;
  for (std::size_t i = 32; i < 36; ++i) bad[i] = 0xFF;
  std::string error = decode_error(bad);
  EXPECT_NE(error.find("snapshot array length exceeds the remaining bytes"),
            std::string::npos) << error;
  EXPECT_NE(error.find("at byte 32"), std::string::npos) << error;

  // The first job's state byte follows its id, spec and submit time.
  const rms::JobSpec& spec = run.state.jobs.front().spec;
  std::size_t at = 36 + 8 + 4 + spec.name.size();
  for (const std::string* s : {&spec.cred.user, &spec.cred.group,
                               &spec.cred.account, &spec.cred.job_class,
                               &spec.cred.qos})
    at += 4 + s->size();
  at += 4 + 4 + 8 + 1 + 1 + 4 + 4 + spec.type_tag.size() + 8;
  bad = bytes;
  bad[at] = 0xFF;
  error = decode_error(bad);
  EXPECT_NE(error.find("snapshot job state out of range (255) at byte " +
                       std::to_string(at)),
            std::string::npos) << error;

  // An ingest record's kind byte follows its u64 sequence number.
  IngestRecord r;
  r.seq = 5;
  r.kind = IngestKind::Cancel;
  std::vector<unsigned char> ingest = encode_ingest(r);
  ingest[8] = 9;
  try {
    static_cast<void>(decode_ingest(ingest.data(), ingest.size()));
    ADD_FAILURE() << "an ingest kind of 9 must be rejected";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("WAL ingest kind out of range (9)"),
              std::string::npos) << e.what();
  }
}

// --- capture/restore fidelity ----------------------------------------------

TEST(StateRestore, RestoredSystemRecapturesIdentically) {
  CapturedRun run = capture_mid_run();

  batch::BatchSystem restored(durable_config());
  restore_state(restored, run.state);
  SystemState again = capture_state(restored);
  again.last_admitted = run.state.last_admitted;
  again.wal_ingest = run.state.wal_ingest;
  again.wal_decisions = run.state.wal_decisions;
  again.rng = run.state.rng;

  EXPECT_EQ(again.now, run.state.now);
  EXPECT_TRUE(again.jobs == run.state.jobs);
  EXPECT_TRUE(again.dyn_fifo == run.state.dyn_fifo);
  EXPECT_TRUE(again.hints == run.state.hints);
  EXPECT_TRUE(again.node_states == run.state.node_states);
  EXPECT_TRUE(again.moms == run.state.moms);
  EXPECT_TRUE(again.scheduler == run.state.scheduler);
  EXPECT_TRUE(again.metrics == run.state.metrics);
  EXPECT_TRUE(again == run.state);
}

TEST(StateRestore, RestoredSystemFinishesLikeTheOriginal) {
  CapturedRun run = capture_mid_run();

  batch::BatchSystem restored(durable_config());
  restore_state(restored, run.state);

  run.system->run();
  restored.run();

  const metrics::WorkloadSummary a = metrics::summarize(run.system->recorder());
  const metrics::WorkloadSummary b = metrics::summarize(restored.recorder());
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.evolving_jobs, b.evolving_jobs);
  EXPECT_EQ(a.satisfied_dyn_jobs, b.satisfied_dyn_jobs);
  EXPECT_EQ(a.granted_dyn_requests, b.granted_dyn_requests);
  EXPECT_EQ(a.backfilled_jobs, b.backfilled_jobs);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.max_wait, b.max_wait);
  EXPECT_EQ(a.avg_turnaround, b.avg_turnaround);
}

// --- WAL -------------------------------------------------------------------

IngestRecord sample_submit(std::uint64_t seq) {
  IngestRecord r;
  r.seq = seq;
  r.kind = IngestKind::Submit;
  r.requested = Time::from_micros(static_cast<std::int64_t>(100 * seq + 7));
  r.admitted = r.requested + Duration::micros(1);
  r.spec = test::spec("wal_job_" + std::to_string(seq), 4,
                      Duration::seconds(3600), "carol");
  r.behavior.static_runtime = Duration::seconds(1800);
  r.behavior.evolving = true;
  r.behavior.ask_cores = 6;
  return r;
}

IngestRecord sample_cancel(std::uint64_t seq) {
  IngestRecord r;
  r.seq = seq;
  r.kind = IngestKind::Cancel;
  r.requested = Time::from_micros(static_cast<std::int64_t>(100 * seq + 9));
  r.admitted = r.requested + Duration::micros(2);
  r.job = JobId(seq);
  return r;
}

rms::Decision sample_decision(std::uint64_t i) {
  rms::Decision d;
  switch (i % 3) {
    case 0:
      d.kind = rms::DecisionKind::StartJob;
      d.job = JobId(i);
      d.backfilled = (i % 2) != 0;
      break;
    case 1:
      d.kind = rms::DecisionKind::Reserve;
      d.job = JobId(i);
      d.cores = static_cast<CoreCount>(4 + i);
      d.start = Time::from_micros(static_cast<std::int64_t>(1000 * i));
      break;
    default:
      d.kind = rms::DecisionKind::GrantDyn;
      d.job = JobId(i);
      d.request = RequestId(i * 2);
      d.cores = 2;
      break;
  }
  return d;
}

TEST(IngestCodec, RoundTripsSubmitAndCancel) {
  for (const IngestRecord& r : {sample_submit(3), sample_cancel(9)}) {
    const std::vector<unsigned char> bytes = encode_ingest(r);
    const IngestRecord d = decode_ingest(bytes.data(), bytes.size());
    EXPECT_TRUE(d == r);
  }
  const std::vector<unsigned char> bytes = encode_ingest(sample_submit(1));
  EXPECT_THROW(decode_ingest(bytes.data(), bytes.size() / 2),
               precondition_error);
}

TEST(Wal, WriterReaderRoundTrip) {
  TempDir dir("wal_roundtrip");
  const std::string path = wal_path(dir.path());

  std::vector<IngestRecord> ingests;
  std::vector<std::vector<unsigned char>> decision_payloads;
  {
    WalWriter writer(path);
    for (std::uint64_t i = 0; i < 4; ++i) {
      IngestRecord r = (i % 2 == 0) ? sample_submit(i) : sample_cancel(i);
      writer.append_ingest(r);
      ingests.push_back(std::move(r));
      const Time at = Time::from_micros(static_cast<std::int64_t>(10 * i));
      const rms::Decision d = sample_decision(i);
      writer.append_decision(at, /*iteration=*/i, d);
      decision_payloads.push_back(encode_decision(at, i, d));
    }
    writer.sync();
    EXPECT_EQ(writer.appended_ingest(), 4u);
    EXPECT_EQ(writer.appended_decisions(), 4u);
  }

  const WalContents wal = read_wal(path);
  ASSERT_EQ(wal.ingest.size(), 4u);
  ASSERT_EQ(wal.decisions.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(wal.ingest[i] == ingests[i]);
    EXPECT_EQ(wal.decisions[i].payload, decision_payloads[i]);
    EXPECT_EQ(wal.decisions[i].iteration, i);
    EXPECT_EQ(wal.decisions[i].at.as_micros(),
              static_cast<std::int64_t>(10 * i));
  }
  EXPECT_EQ(wal.valid_bytes, fs::file_size(path));

  // Reopen at valid_bytes and append: the continuation reads back whole.
  {
    WalWriter writer(path, wal.valid_bytes);
    writer.append_ingest(sample_submit(99));
    writer.sync();
  }
  const WalContents more = read_wal(path);
  ASSERT_EQ(more.ingest.size(), 5u);
  EXPECT_EQ(more.ingest.back().seq, 99u);
  EXPECT_EQ(more.decisions.size(), 4u);
}

TEST(Wal, MissingFileIsEmptyAndForeignFilesAreRejected) {
  TempDir dir("wal_missing");
  const WalContents none = read_wal(wal_path(dir.path()));
  EXPECT_TRUE(none.ingest.empty());
  EXPECT_TRUE(none.decisions.empty());
  EXPECT_EQ(none.valid_bytes, 0u);

  const std::string foreign = dir.path() + "/foreign.bin";
  std::ofstream(foreign, std::ios::binary) << "NOTAWALFILE_____";
  EXPECT_THROW((void)read_wal(foreign), precondition_error);
}

// Torn-tail tolerance, exhaustively: for EVERY byte prefix of a real WAL,
// read_wal() recovers exactly the records whose frames fit the prefix and
// reports valid_bytes at that frame boundary — the offset recovery uses to
// reopen the log. A crash can cut the file anywhere; no cut may lose a
// complete record or resurrect a partial one.
TEST(Wal, ToleratesTruncationAtEveryByteOffset) {
  TempDir dir("wal_torn");
  const std::string path = wal_path(dir.path());

  // Frame boundaries, tracked as records are appended.
  std::vector<std::uint64_t> boundaries{kWalHeaderSize};
  std::size_t records = 0;
  {
    WalWriter writer(path);
    for (std::uint64_t i = 0; i < 3; ++i) {
      const IngestRecord r = (i % 2 == 0) ? sample_submit(i) : sample_cancel(i);
      writer.append_ingest(r);
      boundaries.push_back(boundaries.back() + 5 + encode_ingest(r).size());
      ++records;
      const Time at = Time::from_micros(static_cast<std::int64_t>(i));
      const rms::Decision d = sample_decision(i);
      writer.append_decision(at, i, d);
      boundaries.push_back(boundaries.back() + 5 +
                           encode_decision(at, i, d).size());
      ++records;
    }
    writer.sync();
  }
  std::vector<unsigned char> full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(full.size(), boundaries.back());

  const std::string cut_path = dir.path() + "/cut.dbsw";
  for (std::size_t keep = 0; keep <= full.size(); ++keep) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(full.data()),
                static_cast<std::streamsize>(keep));
    }
    if (keep < kWalHeaderSize) {
      // A crash inside the 8-byte header loses the log's identity; that is
      // a hard error, not a torn tail.
      EXPECT_THROW((void)read_wal(cut_path), precondition_error);
      continue;
    }
    // The longest frame boundary that fits the prefix.
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= keep)
      ++complete;
    const WalContents wal = read_wal(cut_path);
    EXPECT_EQ(wal.ingest.size() + wal.decisions.size(), complete)
        << "prefix of " << keep << " bytes";
    EXPECT_EQ(wal.valid_bytes, boundaries[complete])
        << "prefix of " << keep << " bytes";
  }
}

// --- state directory policies ----------------------------------------------

TEST(StateDir, BestSnapshotRespectsWalConsistency) {
  TempDir dir("best_snapshot");
  CapturedRun run = capture_mid_run(20, 4);

  for (const std::uint64_t decisions : {10u, 20u, 30u}) {
    run.state.wal_decisions = decisions;
    run.state.wal_ingest = decisions / 2;
    write_snapshot(dir.path(), run.state);
  }

  // Newest consistent image wins; images claiming more than the WAL holds
  // are skipped (a crash can lose a snapshot's tail, never un-write the
  // log).
  std::optional<SystemState> best = load_best_snapshot(dir.path(), 100, 100);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->wal_decisions, 30u);

  best = load_best_snapshot(dir.path(), 100, 25);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->wal_decisions, 20u);

  // The ingest count gates too: WAL ingest below the image's claim.
  best = load_best_snapshot(dir.path(), 9, 100);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->wal_decisions, 10u);

  best = load_best_snapshot(dir.path(), 0, 0);
  EXPECT_FALSE(best.has_value());
}

TEST(StateDir, CorruptSnapshotFallsBackToOlderImage) {
  TempDir dir("corrupt_snapshot");
  CapturedRun run = capture_mid_run(20, 5);

  run.state.wal_decisions = 10;
  run.state.wal_ingest = 5;
  write_snapshot(dir.path(), run.state);
  run.state.wal_decisions = 20;
  write_snapshot(dir.path(), run.state);

  // Garbage where the newest image should be: skipped, not fatal.
  std::ofstream(snapshot_path(dir.path(), 20),
                std::ios::binary | std::ios::trunc)
      << "garbage";
  const std::optional<SystemState> best =
      load_best_snapshot(dir.path(), 100, 100);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->wal_decisions, 10u);
}

TEST(StateDir, PruneKeepsNewestImages) {
  TempDir dir("prune");
  CapturedRun run = capture_mid_run(20, 6);
  for (const std::uint64_t decisions : {5u, 10u, 15u, 20u, 25u, 30u}) {
    run.state.wal_decisions = decisions;
    write_snapshot(dir.path(), run.state);
  }

  EXPECT_EQ(prune_snapshots(dir.path(), 0), 0u);  // keep-all is a no-op
  EXPECT_EQ(prune_snapshots(dir.path(), 4), 2u);
  EXPECT_FALSE(fs::exists(snapshot_path(dir.path(), 5)));
  EXPECT_FALSE(fs::exists(snapshot_path(dir.path(), 10)));
  for (const std::uint64_t kept : {15u, 20u, 25u, 30u})
    EXPECT_TRUE(fs::exists(snapshot_path(dir.path(), kept)));
  EXPECT_EQ(prune_snapshots(dir.path(), 4), 0u);  // already within budget
}

TEST(StateDir, ForeignSnapshotNamesAreIgnored) {
  TempDir dir("foreign_names");
  CapturedRun run = capture_mid_run(20, 7);
  run.state.wal_decisions = 10;
  write_snapshot(dir.path(), run.state);
  // Not a decision count: beyond u64, signed, empty, not a number. None
  // may be loaded, pruned or throw.
  for (const char* name :
       {"snapshot-99999999999999999999999.dbss", "snapshot-+5.dbss",
        "snapshot-.dbss", "snapshot-1x.dbss"})
    std::ofstream(dir.path() + "/" + name) << "garbage";

  const std::optional<SystemState> best =
      load_best_snapshot(dir.path(), 100, 100);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->wal_decisions, 10u);
  EXPECT_EQ(prune_snapshots(dir.path(), 1), 0u);
  EXPECT_TRUE(
      fs::exists(dir.path() + "/snapshot-99999999999999999999999.dbss"));
}

}  // namespace
}  // namespace dbs::svc

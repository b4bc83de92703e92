// Differential test: the snapshot and WAL payload codec of
// svc/state_store.cpp, where each type's field list is written once and
// run in both directions, must agree with the reference put_*/get_* pair
// kept in reference_state_codec.hpp: identical bytes for the same value,
// and each side decodes the other's bytes to an ==-equal value. States
// are captured at many points of seeded runs, with fairshare and dynamic
// fair-share on and negotiation timeouts that keep dynamic requests
// queued, so the FIFO, mom asks, DFS ledgers and fairshare windows all
// carry data (mom releases are set by hand); ingest records and decision
// frames are drawn at random.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "batch/batch_system.hpp"
#include "common/rng.hpp"
#include "reference_state_codec.hpp"
#include "svc/state_store.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace dbs::svc {
namespace {

batch::SystemConfig codec_config() {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 4;
  cfg.scheduler.fairshare.enabled = true;
  cfg.scheduler.fairshare.interval = Duration::hours(1);
  cfg.scheduler.fairshare.depth = 4;
  cfg.scheduler.dfs.policy = core::DfsPolicy::SingleAndTargetDelay;
  cfg.scheduler.dfs.defaults.single_delay = Duration::minutes(5);
  cfg.scheduler.dfs.defaults.target_delay = Duration::minutes(10);
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
  scfg.overlay_dynamic_fraction = 0.5;
  scfg.overlay_seed = seed;
  std::istringstream in(out.str());
  wl::swf::SwfSource source(in, scfg);
  source.set_max_cores(8 * 8);

  wl::Workload workload;
  wl::SubmitSpec s;
  while (source.next(s)) {
    // A rejected request then waits at the server until its deadline.
    if (s.behavior.evolving)
      s.behavior.negotiation_timeout = Duration::minutes(20);
    workload.jobs.push_back(s);
  }
  return workload;
}

/// What the captured states covered, so the test fails if a seed change
/// leaves a part of the format unexercised.
struct Coverage {
  bool dyn_fifo = false;
  bool mom_ask = false;
  bool mom_release = false;
  bool dfs_entities = false;
  bool dfs_job_delays = false;
  bool fairshare_windows = false;
  bool metrics_live = false;
  bool app_state = false;

  void add(const SystemState& s) {
    dyn_fifo |= !s.dyn_fifo.empty();
    for (const auto& m : s.moms) {
      mom_ask |= m.has_ask;
      mom_release |= m.has_release;
    }
    for (const auto& entity : s.scheduler.dfs.entities)
      dfs_entities |= !entity.empty();
    dfs_job_delays |= !s.scheduler.dfs.job_delays.empty();
    fairshare_windows |= !s.scheduler.fairshare.windows.empty();
    metrics_live |= !s.metrics.live.empty();
    for (const auto& e : s.jobs)
      app_state |= !e.app.ints.empty() || !e.app.doubles.empty();
  }
};

/// Encodes `s` with both codecs and decodes each one's bytes with the
/// other.
void expect_state_agrees(const SystemState& s, const std::string& where) {
  const std::vector<unsigned char> mine = encode_state(s);
  const std::vector<unsigned char> ref = testing::encode_state(s);
  ASSERT_EQ(mine, ref) << where;
  EXPECT_TRUE(decode_state(ref) == s) << where;
  EXPECT_TRUE(testing::decode_state(mine) == s) << where;
}

TEST(StateCodecDifferential, SnapshotsMatchReferenceCodec) {
  Coverage covered;
  std::size_t states = 0;
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    const wl::Workload workload = make_workload(80, seed);
    Time last_arrival;
    for (const auto& s : workload.jobs) last_arrival = max(last_arrival, s.at);

    batch::BatchSystem system(codec_config());
    system.submit_workload(workload);
    Rng rng(seed);
    // Capture at seeded points across the run, through the arrivals and
    // well past them while the queue drains.
    Time at = Time::epoch();
    const Time end = last_arrival + Duration::hours(12);
    while (at < end) {
      at = at + Duration::seconds(rng.next_int(60, 1800));
      system.run_until(at);
      SystemState s = capture_state(system);
      s.last_admitted = at;
      s.wal_ingest = rng.next_u64();
      s.wal_decisions = rng.next_u64();
      s.rng = {rng.next_u64(), rng.next_u64(), rng.next_u64(),
               rng.next_u64()};
      // No application that can be snapshotted releases cores on its own,
      // so release descriptors are set by hand on every other mom.
      for (std::size_t i = 1; i < s.moms.size(); i += 2) {
        s.moms[i].has_release = true;
        s.moms[i].release.at = at + Duration::seconds(rng.next_int(1, 600));
        s.moms[i].release.cores = static_cast<CoreCount>(rng.next_int(1, 8));
      }
      covered.add(s);
      expect_state_agrees(s, "seed " + std::to_string(seed) + " at " +
                                 std::to_string(at.as_micros()));
      if (::testing::Test::HasFatalFailure()) return;
      ++states;
    }
  }
  EXPECT_GT(states, 50u);
  EXPECT_TRUE(covered.dyn_fifo);
  EXPECT_TRUE(covered.mom_ask);
  EXPECT_TRUE(covered.mom_release);
  EXPECT_TRUE(covered.dfs_entities);
  EXPECT_TRUE(covered.dfs_job_delays);
  EXPECT_TRUE(covered.fairshare_windows);
  EXPECT_TRUE(covered.metrics_live);
  EXPECT_TRUE(covered.app_state);
}

std::string random_text(Rng& rng) {
  std::string s(static_cast<std::size_t>(rng.next_int(0, 12)), ' ');
  for (char& c : s) c = static_cast<char>(rng.next_int(0, 255));
  return s;
}

Time random_time(Rng& rng) {
  return Time::from_micros(rng.next_int(-1'000'000, 1'000'000'000'000));
}

Duration random_duration(Rng& rng) {
  return Duration::micros(rng.next_int(-1'000'000, 1'000'000'000'000));
}

IngestRecord random_ingest(Rng& rng) {
  IngestRecord r;
  r.seq = rng.next_u64();
  r.kind = rng.next_int(0, 1) == 0 ? IngestKind::Submit : IngestKind::Cancel;
  r.requested = random_time(rng);
  r.admitted = random_time(rng);
  if (r.kind == IngestKind::Submit) {
    r.spec.name = random_text(rng);
    r.spec.cred = {random_text(rng), random_text(rng), random_text(rng),
                   random_text(rng), random_text(rng)};
    r.spec.cores = static_cast<CoreCount>(rng.next_int(-5, 1 << 30));
    r.spec.ppn = static_cast<CoreCount>(rng.next_int(0, 64));
    r.spec.walltime = random_duration(rng);
    r.spec.exclusive_priority = rng.next_int(0, 1) == 1;
    r.spec.preemptible = rng.next_int(0, 1) == 1;
    r.spec.malleable_min = static_cast<CoreCount>(rng.next_int(0, 16));
    r.spec.type_tag = random_text(rng);
    r.behavior.static_runtime = random_duration(rng);
    r.behavior.evolving = rng.next_int(0, 1) == 1;
    r.behavior.first_ask_frac = rng.next_double();
    r.behavior.retry_frac = -rng.next_double();
    r.behavior.ask_cores = static_cast<CoreCount>(rng.next_int(0, 64));
    r.behavior.negotiation_timeout = random_duration(rng);
    r.behavior.malleable = rng.next_int(0, 1) == 1;
  } else {
    r.job = JobId(rng.next_u64());
  }
  return r;
}

TEST(StateCodecDifferential, IngestRecordsMatchReferenceCodec) {
  Rng rng(2014);
  int submits = 0;
  int cancels = 0;
  for (int i = 0; i < 500; ++i) {
    const IngestRecord r = random_ingest(rng);
    (r.kind == IngestKind::Submit ? submits : cancels) += 1;
    const std::vector<unsigned char> mine = encode_ingest(r);
    const std::vector<unsigned char> ref = testing::encode_ingest(r);
    ASSERT_EQ(mine, ref) << "record " << i;
    EXPECT_TRUE(decode_ingest(ref.data(), ref.size()) == r) << i;
    EXPECT_TRUE(testing::decode_ingest(mine.data(), mine.size()) == r) << i;
  }
  EXPECT_GT(submits, 100);
  EXPECT_GT(cancels, 100);
}

TEST(StateCodecDifferential, DecisionFramesMatchReferenceCodec) {
  static constexpr std::string_view kReasons[] = {
      "granted", "denied-target-delay", "", "deferred-negotiation"};
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    rms::Decision d;
    d.kind = static_cast<rms::DecisionKind>(rng.next_int(0, 5));
    d.job = JobId(rng.next_u64());
    d.for_job = JobId(rng.next_u64());
    d.request = RequestId(rng.next_u64());
    d.cores = static_cast<CoreCount>(rng.next_int(-64, 1 << 20));
    d.start = random_time(rng);
    d.backfilled = rng.next_int(0, 1) == 1;
    d.applied = rng.next_int(0, 1) == 1;
    d.deferred = rng.next_int(0, 1) == 1;
    d.reason = kReasons[rng.next_int(0, 3)];
    if (rng.next_int(0, 1) == 1) d.hint = random_time(rng);
    const Time at = random_time(rng);
    const std::uint64_t iteration = rng.next_u64();
    EXPECT_EQ(encode_decision(at, iteration, d),
              testing::encode_decision(at, iteration, d))
        << "decision " << i;
  }
}

}  // namespace
}  // namespace dbs::svc

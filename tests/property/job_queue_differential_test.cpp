// Differential tests: JobQueue's state indexes (queued() and running())
// must equal the full-scan reference filters applied to all() after every
// transition a job can take through the Server — submit, start, dynget,
// grant, reject/timeout, preempt, node-failure requeue, mom_job_failed,
// complete, cancel and retire — including across tombstone compaction and
// across a snapshot capture/restore into a fresh system.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "common/rng.hpp"
#include "reference_job_queue.hpp"
#include "svc/state_store.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace dbs::rms {
namespace {

using testing::reference_queued;
using testing::reference_running;

template <typename Range>
std::string ids_of(const Range& jobs) {
  std::ostringstream out;
  out << '[';
  for (const Job* j : jobs) out << ' ' << j->id().value();
  out << " ]";
  return out.str();
}

template <typename Range>
::testing::AssertionResult index_matches(const char* name, const Range& got,
                                         const std::vector<const Job*>& want) {
  if (std::ranges::equal(got, want)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << name << " index " << ids_of(got) << " != scan " << ids_of(want);
}

::testing::AssertionResult indexes_match(const JobQueue& q) {
  if (auto r = index_matches("queued", q.queued(), reference_queued(q)); !r)
    return r;
  return index_matches("running", q.running(), reference_running(q));
}

enum Action : std::size_t {
  kSubmit,
  kStart,
  kAdvance,
  kGrant,
  kReject,
  kPreempt,
  kNodeFailure,
  kNodeRestore,
  kMomJobFailed,
  kCancel,
  kActionCount,
};

constexpr const char* kActionNames[kActionCount] = {
    "submit",       "start",        "advance",        "grant",  "reject",
    "preempt",      "node_failure", "node_restore",   "mom_job_failed",
    "cancel"};

/// Relative frequency of each action; submissions and starts outweigh the
/// disruptions so the run reaches steady state and keeps retiring jobs.
constexpr std::uint64_t kWeights[kActionCount] = {20, 25, 20, 8, 6,
                                                  4,  1,  2,  3, 4};

/// Counts the transitions the server reports, so a run can show that each
/// kind really happened, not only that it was attempted.
struct TransitionCounts : ServerObserver {
  std::uint64_t starts = 0, dyngets = 0, grants = 0, rejects = 0,
                requeues = 0, completions = 0, cancels = 0;
  void on_job_start(const Job&) override { ++starts; }
  void on_dyn_request(const Job&, const DynRequest&) override { ++dyngets; }
  void on_dyn_grant(const Job&, const DynRequest&, CoreCount) override {
    ++grants;
  }
  void on_dyn_reject(const Job&, const DynRequest&) override { ++rejects; }
  void on_requeue(const Job&) override { ++requeues; }
  void on_job_finish(const Job&) override { ++completions; }
  void on_cancel(const Job&, CoreCount) override { ++cancels; }
};

/// A scheduler-less system driven by seeded random transitions. Jobs are
/// scripted applications, a share of them evolving, so dyngets arrive on
/// their own as virtual time advances, as do completions and (after the
/// grace period) retirements.
class Driver {
 public:
  explicit Driver(std::uint64_t seed) : rng_(seed), sys_(kNodes, 8) {
    sys_.server.set_retirement(Duration::minutes(1));
    sys_.server.add_observer(&counts_);
  }

  const JobQueue& jobs() const { return sys_.server.jobs(); }
  const TransitionCounts& counts() const { return counts_; }

  /// Performs one random action; returns its kind.
  Action step() {
    std::uint64_t total = 0;
    for (const std::uint64_t w : kWeights) total += w;
    std::uint64_t pick = rng_.next_below(total);
    std::size_t a = 0;
    while (pick >= kWeights[a]) pick -= kWeights[a++];
    const auto action = static_cast<Action>(a);
    perform(action);
    return action;
  }

 private:
  static constexpr std::size_t kNodes = 16;

  template <typename T>
  std::optional<T> pick_from(const std::vector<T>& v) {
    if (v.empty()) return std::nullopt;
    return v[rng_.next_below(v.size())];
  }

  void perform(Action action) {
    Server& server = sys_.server;
    switch (action) {
      case kSubmit: submit(); break;
      case kStart:
        if (const auto j = pick_from(reference_queued(jobs())))
          (void)server.start_job((*j)->id(), rng_.next_below(2) == 1);
        break;
      case kAdvance:
        sys_.sim.run_until(sys_.sim.now() +
                           Duration::seconds(rng_.next_int(5, 120)));
        break;
      case kGrant:
        if (const auto r = pick_from(pending_requests()))
          (void)server.grant_dyn(r->id);
        break;
      case kReject:
        // Before a negotiating request's deadline this defers it; after
        // the deadline (or without negotiation) it is final: the timeout.
        if (const auto r = pick_from(pending_requests()))
          server.reject_dyn(r->id, sys_.sim.now() + Duration::minutes(1));
        break;
      case kPreempt: {
        std::vector<JobId> victims;
        for (const Job* j : reference_running(jobs()))
          if (j->spec().preemptible) victims.push_back(j->id());
        if (const auto id = pick_from(victims)) server.preempt(*id);
        break;
      }
      case kNodeFailure: {
        std::vector<NodeId> up;
        std::size_t down = 0;
        for (std::size_t n = 0; n < kNodes; ++n) {
          if (sys_.cluster.node(NodeId(n)).available())
            up.push_back(NodeId(n));
          else
            ++down;
        }
        if (down < 2)
          if (const auto n = pick_from(up)) server.node_failure(*n);
        break;
      }
      case kNodeRestore: {
        std::vector<NodeId> down;
        for (std::size_t n = 0; n < kNodes; ++n)
          if (!sys_.cluster.node(NodeId(n)).available())
            down.push_back(NodeId(n));
        if (const auto n = pick_from(down)) server.restore_node(*n);
        break;
      }
      case kMomJobFailed:
        if (const auto j = pick_from(reference_running(jobs())))
          server.mom_job_failed((*j)->id());
        break;
      case kCancel: {
        std::vector<JobId> live;
        for (const Job* j : jobs().all())
          if (!j->finished()) live.push_back(j->id());
        if (const auto id = pick_from(live)) (void)server.cancel(*id);
        break;
      }
      case kActionCount: break;
    }
  }

  std::vector<DynRequest> pending_requests() const {
    const auto& fifo = jobs().dyn_requests();
    return {fifo.begin(), fifo.end()};
  }

  void submit() {
    const Duration runtime = Duration::seconds(rng_.next_int(60, 480));
    std::vector<apps::ScriptedApp::Step> steps;
    if (rng_.next_below(5) < 2) {
      apps::ScriptedApp::Step grow;
      grow.at_elapsed = Duration::seconds(rng_.next_int(10, 50));
      grow.grow = static_cast<CoreCount>(rng_.next_int(1, 16));
      grow.remaining_scale = 0.5;
      if (rng_.next_below(2) == 1)
        grow.negotiation_timeout = Duration::minutes(2);
      steps.push_back(grow);
    }
    JobSpec spec = test::spec("d" + std::to_string(++submitted_),
                              static_cast<CoreCount>(rng_.next_int(1, 24)),
                              runtime * 2,
                              rng_.next_below(2) == 1 ? "alice" : "bob");
    spec.preemptible = rng_.next_below(2) == 1;
    (void)sys_.server.submit(
        std::move(spec),
        std::make_unique<apps::ScriptedApp>(runtime, std::move(steps)));
  }

  Rng rng_;
  test::BareSystem sys_;
  TransitionCounts counts_;
  std::uint64_t submitted_ = 0;
};

class JobQueueDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JobQueueDifferential, IndexesMatchFullScanAfterEveryTransition) {
  Driver driver(GetParam());
  constexpr int kSteps = 9000;
  std::vector<std::uint64_t> performed(kActionCount, 0);
  for (int i = 0; i < kSteps; ++i) {
    const Action a = driver.step();
    ++performed[a];
    ASSERT_TRUE(indexes_match(driver.jobs()))
        << "after " << kActionNames[a] << " at step " << i;
  }
  // The run must have tried every action, made every kind of transition
  // and crossed the 1024-tombstone compaction floor.
  for (std::size_t a = 0; a < kActionCount; ++a)
    EXPECT_GT(performed[a], 0u) << kActionNames[a];
  const TransitionCounts& c = driver.counts();
  EXPECT_GT(c.starts, 0u);
  EXPECT_GT(c.dyngets, 0u);
  EXPECT_GT(c.grants, 0u);
  EXPECT_GT(c.rejects, 0u);
  EXPECT_GT(c.requeues, 0u);
  EXPECT_GT(c.completions, 0u);
  EXPECT_GT(c.cancels, 0u);
  EXPECT_GT(driver.jobs().retired_count(), 1024u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobQueueDifferential,
                         ::testing::Values(1, 2, 3, 4));

// --- restore ---------------------------------------------------------------

batch::SystemConfig durable_config() {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 4;
  cfg.latency = LatencyModel::zero();
  cfg.streaming_metrics = true;
  cfg.retire_finished_jobs = true;
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

std::vector<std::uint64_t> id_values(std::span<const Job* const> jobs) {
  std::vector<std::uint64_t> out;
  for (const Job* j : jobs) out.push_back(j->id().value());
  return out;
}

// Restored jobs are built by Job::restore and filed by JobQueue::add under
// their saved state; afterwards they must keep refiling like any other job.
TEST(JobQueueRestore, RestoredSystemIndexesMatchFullScan) {
  const wl::Workload workload = make_workload(80, 17);
  Time last_arrival;
  for (const auto& s : workload.jobs) last_arrival = max(last_arrival, s.at);

  batch::BatchSystem original(durable_config());
  original.submit_workload(workload);
  const Time mid = last_arrival + Duration::seconds(1);
  original.run_until(mid);
  const JobQueue& before = original.server().jobs();
  ASSERT_FALSE(before.queued().empty()) << "capture needs a waiting job";
  ASSERT_FALSE(before.running().empty()) << "capture needs a running job";
  const svc::SystemState state = svc::capture_state(original);

  batch::BatchSystem restored(durable_config());
  svc::restore_state(restored, state);
  const JobQueue& after = restored.server().jobs();
  ASSERT_TRUE(indexes_match(after));
  EXPECT_EQ(id_values(after.queued()), id_values(before.queued()));
  EXPECT_EQ(id_values(after.running()), id_values(before.running()));

  // Run both on in lockstep: the restored jobs' transitions must keep the
  // indexes exact and equal to the uninterrupted run's.
  for (Time t = mid; !restored.simulator().idle();) {
    t = t + Duration::minutes(10);
    original.run_until(t);
    restored.run_until(t);
    ASSERT_TRUE(indexes_match(after)) << "at " << t;
    ASSERT_EQ(id_values(after.queued()), id_values(before.queued()))
        << "at " << t;
    ASSERT_EQ(id_values(after.running()), id_values(before.running()))
        << "at " << t;
  }
  EXPECT_TRUE(after.queued().empty());
  EXPECT_TRUE(after.running().empty());
}

}  // namespace
}  // namespace dbs::rms

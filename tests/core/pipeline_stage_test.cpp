// Per-stage unit tests: each pipeline stage is run against a hand-built
// PipelineEnv + IterationContext over a bare server (no scheduler), plus
// dry-run semantics through the full system façade.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "batch/batch_system.hpp"
#include "core/maui_scheduler.hpp"
#include "rms/decision.hpp"

namespace dbs::core {
namespace {

using batch::BatchSystem;
using batch::SystemConfig;

/// A bare server + cluster plus the long-lived engines stages need; tests
/// drive one stage at a time and inspect the context it leaves behind.
struct StageFixture {
  StageFixture() {
    cfg.reservation_depth = 2;
    cfg.reservation_delay_depth = 2;
    sys.server.add_observer(&tracker);
  }
  ~StageFixture() { sys.server.remove_observer(&tracker); }

  void begin(Time now) { ctx.begin_iteration(now, 1, /*dry_run=*/false); }

  JobId submit(const std::string& name, CoreCount cores,
               const std::string& user = "alice") {
    return sys.server.submit(test::spec(name, cores, Duration::minutes(10), user),
                             test::rigid(Duration::minutes(10)));
  }

  test::BareSystem sys;  // 4 nodes x 8 cores
  SchedulerConfig cfg;
  Fairshare fairshare{cfg.fairshare};
  PriorityEngine priority{cfg.weights, cfg.cred_priorities, &fairshare};
  DfsEngine dfs{cfg.dfs};
  IterationContext ctx{sys.server};
  PhysicalProfileTracker tracker{sys.server};
  PipelineEnv env{sys.server, cfg, fairshare, priority, dfs, tracker};
};

TEST(PipelineStages, StageNamesMatchAlgorithmOrder) {
  const auto& names = stage_names();
  ASSERT_EQ(names.size(), kStageCount);
  EXPECT_EQ(names[0], "gather");
  EXPECT_EQ(names[1], "statistics");
  EXPECT_EQ(names[2], "prioritize");
  EXPECT_EQ(names[3], "classify");
  EXPECT_EQ(names[4], "admission");
  EXPECT_EQ(names[5], "start_backfill");
}

TEST(PipelineStages, GatherSnapshotsClusterAndRequestState) {
  StageFixture f;
  const JobId running = f.submit("run", 8);
  ASSERT_TRUE(f.sys.server.start_job(running, false));
  f.submit("queued", 4);
  f.begin(Time::epoch());

  GatherStage gather;
  gather.run(f.env, f.ctx);

  EXPECT_EQ(f.ctx.physical_free, 24);
  EXPECT_EQ(f.ctx.physical.capacity(), 32);
  EXPECT_TRUE(f.ctx.requests.empty());
  EXPECT_EQ(f.ctx.stats.eligible_dynamic, 0u);
  // The planning profile mirrors the physical one when no dynamic
  // partition is configured.
  EXPECT_EQ(f.ctx.planning.capacity(), f.ctx.physical.capacity());
}

TEST(PipelineStages, StatisticsChargesRunningUsageIntoFairshare) {
  StageFixture f;
  f.cfg.fairshare.enabled = true;
  f.cfg.fairshare.user_targets["alice"] = 50.0;
  f.fairshare = Fairshare(f.cfg.fairshare);
  const JobId running = f.submit("run", 8);
  ASSERT_TRUE(f.sys.server.start_job(running, false));

  StatisticsStage statistics(Time::epoch());
  f.begin(Time::from_seconds(100));
  statistics.run(f.env, f.ctx);
  // 8 cores for 100 s.
  EXPECT_DOUBLE_EQ(f.fairshare.effective_usage("alice"), 800.0);

  // The second pass charges only the delta since the first.
  f.begin(Time::from_seconds(150));
  statistics.run(f.env, f.ctx);
  EXPECT_DOUBLE_EQ(f.fairshare.effective_usage("alice"), 1200.0);
}

TEST(PipelineStages, PrioritizeOrdersQueueAndAppliesPerUserCap) {
  StageFixture f;
  f.submit("a1", 4, "alice");
  f.submit("a2", 4, "alice");
  f.submit("b1", 4, "bob");

  f.begin(Time::epoch());
  PrioritizeStage prioritize;
  prioritize.run(f.env, f.ctx);
  EXPECT_EQ(f.ctx.prioritized.size(), 3u);
  EXPECT_EQ(f.ctx.stats.eligible_static, 3u);
  EXPECT_FALSE(f.ctx.drain);

  f.cfg.max_eligible_per_user = 1;
  f.begin(Time::epoch());
  prioritize.run(f.env, f.ctx);
  ASSERT_EQ(f.ctx.prioritized.size(), 2u);  // first of alice, first of bob
  EXPECT_EQ(f.ctx.prioritized[0]->spec().name, "a1");
  EXPECT_EQ(f.ctx.prioritized[1]->spec().name, "b1");
}

TEST(PipelineStages, PrioritizeDetectsExclusivePriorityDrain) {
  StageFixture f;
  rms::JobSpec z = test::spec("z", 32, Duration::minutes(10));
  z.exclusive_priority = true;
  f.sys.server.submit(std::move(z), test::rigid(Duration::minutes(10)));
  f.begin(Time::epoch());
  PrioritizeStage prioritize;
  prioritize.run(f.env, f.ctx);
  EXPECT_TRUE(f.ctx.drain);
}

TEST(PipelineStages, ClassifySplitsStartNowFromStartLater) {
  StageFixture f;
  f.submit("fits", 32);     // fills the empty machine: StartNow
  f.submit("waits", 8);     // must wait for "fits": StartLater
  f.begin(Time::epoch());

  GatherStage gather;
  PrioritizeStage prioritize;
  ClassifyStage classify;
  gather.run(f.env, f.ctx);
  prioritize.run(f.env, f.ctx);
  classify.run(f.env, f.ctx);

  EXPECT_EQ(f.ctx.baseline_plan.table.start_now_count(), 1u);
  EXPECT_EQ(f.ctx.baseline_plan.table.start_later_count(), 1u);
  // The protected set is the StartNow job plus the delayed job (depth 2).
  EXPECT_EQ(f.ctx.protected_jobs.size(), 2u);
  EXPECT_EQ(f.ctx.measure_opts.now, Time::epoch());
  EXPECT_EQ(f.ctx.measure_opts.reservation_limit, f.cfg.delay_plan_depth());
}

SystemConfig small_config() {
  SystemConfig c;
  c.cluster.node_count = 2;
  c.cluster.cores_per_node = 8;
  c.scheduler.reservation_depth = 2;
  c.scheduler.reservation_delay_depth = 2;
  return c;
}

TEST(DryRunIteration, RecordsDecisionsWithoutApplyingThem) {
  BatchSystem sys(small_config());
  // Fill the machine, then queue a job that must wait.
  sys.submit_now(test::spec("fill", 16, Duration::minutes(10)),
                 test::rigid(Duration::minutes(10)));
  sys.submit_at(Time::from_seconds(5), test::spec("waits", 16, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(5)); });
  sys.run_until(Time::from_seconds(30));

  ASSERT_EQ(sys.server().jobs().queued().size(), 1u);
  const std::uint64_t iterations_before = sys.scheduler().iterations();

  const std::vector<rms::Decision> decisions =
      sys.scheduler().dry_run_iteration();

  // The waiting job shows up as a reservation in the stream.
  ASSERT_FALSE(decisions.empty());
  bool reserved_waiting = false;
  for (const rms::Decision& d : decisions)
    if (d.kind == rms::DecisionKind::Reserve && d.cores == 16)
      reserved_waiting = true;
  EXPECT_TRUE(reserved_waiting);

  // Nothing was applied: same queue, same iteration count, and the run
  // completes exactly as if the dry-run had never happened.
  EXPECT_EQ(sys.server().jobs().queued().size(), 1u);
  EXPECT_EQ(sys.scheduler().iterations(), iterations_before);
  sys.run();
  for (const auto& rec : sys.recorder().records())
    EXPECT_TRUE(rec.completed());
}

TEST(DryRunIteration, EmptySystemEmitsNoDecisions)
{
  BatchSystem sys(small_config());
  EXPECT_TRUE(sys.scheduler().dry_run_iteration().empty());
}

TEST(PipelineMetrics, StageTimingsCoverEveryStage) {
  SystemConfig c = small_config();
  c.scheduler.stage_timing = true;
  BatchSystem sys(c);
  obs::Registry registry;
  sys.set_sinks({nullptr, &registry});
  sys.submit_now(test::spec("a", 8, Duration::minutes(1)),
                 test::rigid(Duration::minutes(1)));
  sys.run();

  ASSERT_GE(sys.scheduler().iterations(), 1u);
  const IterationStats& last = sys.scheduler().last_stats();
  double stage_sum = 0.0;
  for (double us : last.stage_wall_us) {
    EXPECT_GE(us, 0.0);
    stage_sum += us;
  }
  // Stage spans are measured inside the iteration span.
  EXPECT_LE(stage_sum, last.wall_us + 1e-6);

  for (std::string_view stage : stage_names()) {
    const obs::Histogram* h = registry.find_histogram(
        std::string("scheduler.stage_iteration_us.") + std::string(stage));
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_EQ(h->count(), sys.scheduler().iterations()) << stage;
  }
}

TEST(PipelineHistory, HistoryIsCappedAtKHistoryCap) {
  // The cap itself (4096 iterations) is too slow to exercise end-to-end
  // here; assert the contract on the structure instead: history holds one
  // entry per iteration and is bounded by kHistoryCap.
  BatchSystem sys(small_config());
  sys.submit_now(test::spec("a", 8, Duration::minutes(1)),
                 test::rigid(Duration::minutes(1)));
  sys.run();
  EXPECT_EQ(sys.scheduler().history().size(),
            std::min<std::size_t>(sys.scheduler().iterations(),
                                  MauiScheduler::kHistoryCap));
  EXPECT_EQ(sys.scheduler().history().back().at,
            sys.scheduler().last_stats().at);
}

}  // namespace
}  // namespace dbs::core

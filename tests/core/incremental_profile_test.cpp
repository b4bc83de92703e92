// The planning caches: the persistent physical profile, the plan-cache
// tail verdicts and the priority-order cache must be invisible — every
// structure equal to its from-scratch reference, every decision stream
// byte-identical to that of a scheduler whose caches are cold.
//
// The storm tests drive a BatchSystem over seeded random workloads with
// grant/release/failure churn. At every scheduler trigger they check a
// test-owned PhysicalProfileTracker against the reference profile, a
// test-owned PriorityOrderCache against PriorityEngine::prioritize, a
// test-owned PlanCache against the uncached planning walk, and the live
// scheduler's dry-run decisions against those of a cold MauiScheduler
// restored from the live one's service state — the state a crash recovery
// starts from, with every cache empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "../property/reference_physical_profile.hpp"
#include "../testutil.hpp"
#include "apps/app_model.hpp"
#include "common/rng.hpp"
#include "batch/batch_system.hpp"
#include "core/availability_profile.hpp"
#include "core/backfill.hpp"
#include "core/maui_scheduler.hpp"
#include "core/partition.hpp"
#include "core/physical_profile.hpp"
#include "core/pipeline/prioritize_stage.hpp"
#include "core/plan_cache.hpp"
#include "core/priority.hpp"
#include "core/priority_cache.hpp"
#include "obs/registry.hpp"
#include "rms/decision.hpp"
#include "workload/synthetic.hpp"

namespace dbs::core {
namespace {

Time at(long s) { return Time::from_seconds(s); }

// --- AvailabilityProfile incremental primitives ---------------------------

TEST(IncrementalProfile, AdvanceOriginDropsPastBreakpoints) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(10), at(20), 16);
  p.subtract(at(30), at(40), 32);
  p.advance_origin(at(25));
  EXPECT_EQ(p.origin(), at(25));
  EXPECT_EQ(p.free_at(at(25)), 64);
  EXPECT_EQ(p.free_at(at(35)), 32);
  const auto bps = p.breakpoints();
  ASSERT_FALSE(bps.empty());
  EXPECT_EQ(bps.front().first, at(25));
  // Advancing into the middle of a hold keeps its remainder.
  p.advance_origin(at(35));
  EXPECT_EQ(p.free_at(at(35)), 32);
  EXPECT_EQ(p.free_at(at(40)), 64);
  // Advancing to the current origin is a no-op.
  const AvailabilityProfile before = p;
  p.advance_origin(at(35));
  EXPECT_EQ(p, before);
}

TEST(IncrementalProfile, CoalesceMergesEqualRuns) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(10), at(20), 16);
  p.add(at(10), at(20), 16);  // leaves two redundant breakpoints behind
  EXPECT_GT(p.step_count(), 1u);
  p.coalesce();
  EXPECT_EQ(p.step_count(), 1u);
  EXPECT_EQ(p, AvailabilityProfile(at(0), 64));
}

TEST(IncrementalProfile, EqualityIsStructural) {
  AvailabilityProfile a(at(0), 64);
  AvailabilityProfile b(at(0), 64);
  EXPECT_EQ(a, b);
  a.subtract(at(5), at(10), 8);
  EXPECT_NE(a, b);
  b.subtract(at(5), at(10), 8);
  EXPECT_EQ(a, b);
  AvailabilityProfile c(at(1), 64);
  EXPECT_NE(a, c);
}

TEST(IncrementalProfile, AppendFastPathMatchesGenericLayout) {
  // Same two disjoint holds, subtracted in append order (fast path twice)
  // and in reverse order (append, then a generic mid-vector insert); the
  // final representation must be identical, not just pointwise equal.
  AvailabilityProfile fwd(at(0), 64);
  fwd.subtract(at(10), at(20), 16);
  fwd.subtract(at(30), at(40), 8);
  AvailabilityProfile rev(at(0), 64);
  rev.subtract(at(30), at(40), 8);
  rev.subtract(at(10), at(20), 16);
  EXPECT_EQ(fwd, rev);
  const std::vector<std::pair<Time, CoreCount>> expected{
      {at(0), 64},  {at(10), 48}, {at(20), 64},
      {at(30), 56}, {at(40), 64}};
  EXPECT_EQ(fwd.breakpoints(), expected);
  for (long t : {0, 10, 15, 20, 30, 35, 40, 50})
    EXPECT_EQ(fwd.free_at(at(t)), rev.free_at(at(t))) << t;
}

TEST(IncrementalProfile, FarFutureSubtractUsesAppendPath) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(0), Time::far_future(), 16);  // the down-node block shape
  EXPECT_EQ(p.free_at(at(0)), 48);
  EXPECT_EQ(p.min_free(at(0), at(1000000)), 48);
  p.add(at(0), Time::far_future(), 16);
  p.coalesce();
  EXPECT_EQ(p, AvailabilityProfile(at(0), 64));
}

// --- PlanCache staircase ---------------------------------------------------

TEST(PlanCache, StaircaseAnswersMinFree) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(0), at(100), 16);
  p.subtract(at(50), at(200), 8);
  p.subtract(at(300), at(400), 40);
  PlanCache cache;
  cache.refresh(p, at(0));
  for (long w : {1, 50, 100, 150, 200, 250, 300, 350, 400, 500})
    EXPECT_EQ(cache.min_for(Duration::seconds(w)),
              p.min_free(at(0), at(0) + Duration::seconds(w)))
        << w;
}

/// The answer min_for must give, by brute force over the staircase: the
/// minimum over every entry whose window range (the previous entry's
/// window, its own] reaches into (0, window].
CoreCount staircase_min(const std::vector<PlanCache::MinStep>& stairs,
                        Duration window) {
  CoreCount m = std::numeric_limits<CoreCount>::max();
  Duration covered = Duration::zero();
  for (const PlanCache::MinStep& s : stairs) {
    if (covered >= window) break;
    m = std::min(m, s.min_free);
    covered = s.window;
  }
  return m;
}

TEST(PlanCache, MinForMatchesBruteForceOverStaircase) {
  Rng rng(20140916);
  std::uint64_t inner_steps = 0;
  for (int trial = 0; trial < 300; ++trial) {
    AvailabilityProfile p(at(0), 64);
    const auto cuts = rng.next_int(1, 8);
    for (std::int64_t c = 0; c < cuts; ++c) {
      const std::int64_t start = rng.next_int(0, 500);
      p.subtract(at(start), at(start + rng.next_int(1, 300)),
                 static_cast<CoreCount>(rng.next_int(1, 8)));
    }
    const Time now = at(rng.next_int(0, 100));
    PlanCache cache;
    cache.refresh(p, now);
    const Duration forever = cache.staircase.back().window;
    // Every entry's own window (where `<` and `<=` in the lower-bound
    // comparator part ways), a microsecond either side, and random ones.
    std::vector<Duration> windows;
    for (const PlanCache::MinStep& s : cache.staircase) {
      windows.push_back(s.window);
      windows.push_back(s.window - Duration::micros(1));
      windows.push_back(s.window + Duration::micros(1));
    }
    for (int i = 0; i < 8; ++i)
      windows.push_back(Duration::micros(rng.next_int(1, 700'000'000)));
    for (const Duration w : windows) {
      if (w <= Duration::zero() || w > forever) continue;
      ASSERT_EQ(cache.min_for(w), staircase_min(cache.staircase, w))
          << "trial " << trial << " window " << w.as_micros();
      ASSERT_EQ(cache.min_for(w), p.min_free(now, now + w))
          << "trial " << trial << " window " << w.as_micros();
    }
    inner_steps += cache.staircase.size() - 1;
  }
  EXPECT_GT(inner_steps, 300u);  // most staircases step down before forever
}

TEST(PlanCache, InternedVersionsAreStableAcrossCycles) {
  AvailabilityProfile base(at(0), 64);
  base.subtract(at(0), at(100), 16);
  PlanCache cache;
  cache.refresh(base, at(0));
  const std::uint64_t v_base = cache.version;

  AvailabilityProfile mutated = base;
  mutated.subtract(at(0), at(10), 8);  // a planned backfill dirties the tail
  cache.refresh(mutated, at(0));
  const std::uint64_t v_mut = cache.version;
  EXPECT_NE(v_base, v_mut);

  // Next iteration replays the same walk: both staircases re-yield their
  // original versions, so verdicts recorded against them stay valid.
  cache.refresh(base, at(0));
  EXPECT_EQ(cache.version, v_base);
  cache.refresh(mutated, at(0));
  EXPECT_EQ(cache.version, v_mut);
  // An unchanged profile never bumps.
  cache.refresh(mutated, at(0));
  EXPECT_EQ(cache.version, v_mut);
}

// --- Cached planning walk differential ------------------------------------

TEST(PlanCacheDifferential, CachedTailMatchesUncachedWalk) {
  test::BareSystem sys(8, 8);
  std::vector<JobId> ids;
  // A mix that forces a deep tail: big jobs exhaust the reservation budget
  // early, small ones behind them can only backfill or wait.
  for (int i = 0; i < 40; ++i) {
    const CoreCount cores = (i % 7 == 0) ? 64 : (i % 3 == 0 ? 48 : 4);
    const Duration wall = Duration::minutes(5 + (i * 13) % 50);
    ids.push_back(sys.server.submit(
        test::spec("j" + std::to_string(i), cores, wall,
                   i % 2 ? "alice" : "bob"),
        test::rigid(wall)));
  }
  std::vector<const rms::Job*> prioritized;
  for (const JobId id : ids) prioritized.push_back(&sys.server.job(id));

  AvailabilityProfile base(at(0), 64);
  base.subtract(at(0), at(1800), 52);  // running load: only 12 cores free

  PlanCache cache;
  Plan cached, plain;
  for (int pass = 0; pass < 4; ++pass) {
    // Re-plan the same state repeatedly (the steady-state iteration):
    // pass 0 fills the cache, later passes reuse its verdicts.
    PlanOptions options{at(0), 2, /*allow_backfill=*/true, false};
    plan_jobs_into(prioritized, base, options, cached, &cache);
    plan_jobs_into(prioritized, base, options, plain, nullptr);
    ASSERT_EQ(cached.table.items().size(), plain.table.items().size()) << pass;
    for (std::size_t i = 0; i < plain.table.items().size(); ++i) {
      const Reservation& a = cached.table.items()[i];
      const Reservation& b = plain.table.items()[i];
      EXPECT_EQ(a.job, b.job) << pass << ":" << i;
      EXPECT_EQ(a.start, b.start) << pass << ":" << i;
      EXPECT_EQ(a.end, b.end) << pass << ":" << i;
      EXPECT_EQ(a.cores, b.cores) << pass << ":" << i;
      EXPECT_EQ(a.start_now, b.start_now) << pass << ":" << i;
      EXPECT_EQ(a.backfilled, b.backfilled) << pass << ":" << i;
    }
    EXPECT_EQ(cached.profile, plain.profile) << pass;
  }
  EXPECT_GT(cache.hits, 0u);
}

// --- Priority-order cache differential ------------------------------------

TEST(PriorityOrderCache, MatchesFullSortUnderChurn) {
  test::BareSystem sys(1, 4);
  PriorityWeights weights;
  weights.queue_time_per_minute = 1.0;
  weights.xfactor = 5.0;  // short-walltime jobs overtake over time
  weights.per_core = 0.1;
  weights.cred = 2.0;
  CredPriorities cred;
  cred.user["alice"] = 10.0;
  cred.user["bob"] = -5.0;
  const PriorityEngine engine(weights, cred, nullptr);
  PriorityOrderCache cache;

  std::vector<JobId> ids;
  int submitted = 0;
  const auto submit = [&](Duration wall, CoreCount cores, const char* user) {
    // 64-core asks on a 4-core machine: jobs stay queued forever.
    ids.push_back(sys.server.submit(
        test::spec("p" + std::to_string(submitted++), cores, wall, user),
        test::rigid(wall)));
  };
  for (int i = 0; i < 24; ++i)
    submit(Duration::minutes(2 + (i * 17) % 45), 64,
           i % 3 ? "alice" : "bob");

  for (int pass = 0; pass < 30; ++pass) {
    const Time now = sys.sim.now();
    const auto queued = sys.server.jobs().queued();
    std::vector<const rms::Job*> incremental(queued.begin(), queued.end());
    std::vector<const rms::Job*> reference =
        engine.prioritize(incremental, now);
    cache.order(incremental, engine, now);
    ASSERT_EQ(incremental, reference) << "pass " << pass;

    // Churn: arrivals, departures, and enough time for xfactor drift to
    // reorder neighbours (exercising the full-sort fallback).
    if (pass % 3 == 0) submit(Duration::minutes(1 + pass), 64, "bob");
    if (pass % 4 == 1 && !ids.empty()) {
      sys.server.cancel(ids.back());
      ids.pop_back();
    }
    sys.sim.run_until(now + Duration::minutes(7));
  }
  // Both regimes must actually have been exercised.
  EXPECT_GT(cache.merged_passes(), 0u);
  EXPECT_GT(cache.resorted_passes(), 0u);
}

// --- Event-storm cold-vs-warm oracle -------------------------------------

/// Renders a decision stream the way the JSONL trace does.
std::string decisions_json(const std::vector<rms::Decision>& decisions) {
  std::string out;
  for (const rms::Decision& d : decisions) {
    rms::decision_to_json(d, out);
    out += '\n';
  }
  return out;
}

bool same_plan(const Plan& a, const Plan& b) {
  const auto same = [](const Reservation& x, const Reservation& y) {
    return x.job == y.job && x.start == y.start && x.end == y.end &&
           x.cores == y.cores && x.start_now == y.start_now &&
           x.backfilled == y.backfilled;
  };
  return a.profile == b.profile &&
         std::equal(a.table.items().begin(), a.table.items().end(),
                    b.table.items().begin(), b.table.items().end(), same);
}

/// What one storm's oracle saw.
struct StormResult {
  std::size_t comparisons = 0;
  std::size_t decided = 0;  ///< comparisons with a non-empty stream
  std::size_t mismatches = 0;
  std::string first_mismatch;
  std::uint64_t dyn_releases = 0;
};

/// The checks run at every scheduler trigger, before the live iteration.
/// Mismatches are counted and the first one kept, so a broken cache fails
/// with one readable diff instead of one per trigger.
class StormOracle {
 public:
  explicit StormOracle(batch::BatchSystem& sys)
      : sys_(sys),
        tracker_(sys.server()),
        engine_(sys.config().scheduler.weights,
                sys.config().scheduler.cred_priorities,
                &sys.scheduler().fairshare()) {
    sys_.server().add_observer(&tracker_);
  }
  ~StormOracle() { sys_.server().remove_observer(&tracker_); }

  StormOracle(const StormOracle&) = delete;
  StormOracle& operator=(const StormOracle&) = delete;

  void check() {
    const Time now = sys_.simulator().now();
    const rms::Server& server = sys_.server();
    const SchedulerConfig& config = sys_.config().scheduler;

    tracker_.advance(now);
    if (tracker_.profile() != testing::reference_physical_profile(server, now))
      fail("physical profile diverged from the reference");

    eligible_static_jobs_into(server, config, eligible_);
    const std::vector<const rms::Job*> sorted =
        engine_.prioritize(eligible_, now);
    priority_cache_.order(eligible_, engine_, now);
    if (eligible_ != sorted) fail("priority order diverged from the full sort");

    // The classify walk over the reference profile, with a plan cache whose
    // verdicts carry across triggers and without one. Cold and warm
    // schedulers compute tail verdicts from the staircase the same way, so
    // a wrong verdict computation can pass the comparison below; the
    // uncached walk does not share it.
    AvailabilityProfile planning =
        testing::reference_physical_profile(server, now);
    reserve_dynamic_partition(planning, config.dynamic_partition_cores);
    const bool drain = priority_cache_.any_exclusive();
    const PlanOptions options{now, config.delay_plan_depth(),
                              config.enable_backfill && !drain, drain};
    plan_jobs_into(eligible_, planning, options, cached_plan_, &plan_cache_);
    plan_jobs_into(eligible_, planning, options, uncached_plan_, nullptr);
    if (!same_plan(cached_plan_, uncached_plan_))
      fail("cached plan diverged from the uncached walk");

    // The cold scheduler must not arm a poll that outlives it.
    MauiScheduler::ServiceState state = sys_.scheduler().save_service_state();
    state.poll_pending = false;
    MauiScheduler cold(sys_.server(), config);
    cold.set_sinks({nullptr, &registry_});
    cold.restore_service_state(state);
    const std::string warm_json =
        decisions_json(sys_.scheduler().dry_run_iteration());
    const std::string cold_json = decisions_json(cold.dry_run_iteration());
    ++result_.comparisons;
    if (!warm_json.empty()) ++result_.decided;
    if (warm_json != cold_json)
      fail("warm decisions:\n" + warm_json + "cold decisions:\n" + cold_json);
  }

  [[nodiscard]] const StormResult& result() const { return result_; }

 private:
  void fail(const std::string& what) {
    if (result_.mismatches++ == 0)
      result_.first_mismatch =
          "at t=" + std::to_string(sys_.simulator().now().as_seconds()) +
          "s: " + what;
  }

  batch::BatchSystem& sys_;
  PhysicalProfileTracker tracker_;
  PriorityEngine engine_;
  PriorityOrderCache priority_cache_;
  std::vector<const rms::Job*> eligible_;
  PlanCache plan_cache_;
  Plan cached_plan_;
  Plan uncached_plan_;
  obs::Registry registry_;  ///< the cold schedulers' sink
  StormResult result_;
};

/// One storm's seed and whether its workload also releases cores.
struct StormParams {
  std::uint64_t seed = 0;
  bool release_churn = false;
};

/// Prints the bare seed: test discovery names each case by its printed
/// value, and the instantiation prefix already says which workload it is.
void PrintTo(const StormParams& p, std::ostream* os) { *os << p.seed; }

/// Scripted jobs that hand cores back in three tm_dynfree steps and then
/// ask for more, so the tracker's dynamic-release path carries load. The
/// synthetic generator's evolving jobs only ever grow. They arrive early,
/// ahead of most of the synthetic backlog, so most of them get to run.
void submit_release_churn(batch::BatchSystem& sys, std::uint64_t seed) {
  for (int k = 0; k < 16; ++k) {
    const Duration runtime =
        Duration::minutes(10 + (k * 7 + static_cast<int>(seed)) % 20);
    const CoreCount cores = k % 3 == 0 ? 8 : 4;
    std::vector<apps::ScriptedApp::Step> steps;
    for (int r = 0; r < 3; ++r)
      steps.push_back({runtime.scaled(0.2 + 0.15 * r), 0, 1, 1.1,
                       Duration::zero()});
    steps.push_back({runtime.scaled(0.7), 2, 0, 0.9, Duration::zero()});
    sys.submit_at(at(20 + 120 * k + static_cast<long>(seed % 5) * 37),
                  test::spec("rel" + std::to_string(k), cores,
                             runtime.scaled(1.5),
                             k % 2 == 0 ? "carol" : "dave"),
                  [runtime, steps] {
                    return std::make_unique<apps::ScriptedApp>(runtime, steps);
                  });
  }
}

/// One seeded storm: synthetic evolving workload plus node failures,
/// restores and cancels injected mid-run (and, with release churn,
/// scripted jobs that release cores), with the oracle run at every
/// scheduler trigger.
StormResult run_storm(const StormParams& params) {
  const std::uint64_t seed = params.seed;
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 1 + seed % 4;
  cfg.scheduler.reservation_delay_depth = 1 + seed % 5;
  cfg.scheduler.allow_preemption = seed % 2 == 0;
  cfg.scheduler.allow_malleable_steal = seed % 3 == 0;
  cfg.scheduler.dynamic_partition_cores = (seed % 4 == 1) ? 8 : 0;

  wl::SyntheticParams wp;
  wp.job_count = 50;
  wp.total_cores = 64;
  wp.evolving_fraction = 0.5;
  wp.preemptible_fraction = cfg.scheduler.allow_preemption ? 0.4 : 0.0;
  wp.malleable_fraction = cfg.scheduler.allow_malleable_steal ? 0.4 : 0.0;
  wp.seed = 100 + seed;

  batch::BatchSystem sys(cfg);
  obs::Registry registry;
  sys.set_sinks({nullptr, &registry});
  sys.submit_workload(wl::generate_synthetic(wp));
  if (params.release_churn) submit_release_churn(sys, seed);

  StormOracle oracle(sys);
  sys.server().set_scheduler_trigger([&] {
    oracle.check();
    sys.scheduler().iterate();
  });

  // Failure/restore churn on a rotating node, plus cancels of random jobs
  // (queued or running — both paths patch the tracker).
  const NodeId failing{seed % 8};
  sys.simulator().schedule_at(at(600 + static_cast<long>(seed) * 17), [&] {
    sys.server().node_failure(failing);
  });
  sys.simulator().schedule_at(at(1500 + static_cast<long>(seed) * 17), [&] {
    sys.server().restore_node(failing);
  });
  for (int k = 0; k < 4; ++k) {
    sys.simulator().schedule_at(
        at(400 + 500 * k + static_cast<long>(seed % 7) * 29), [&sys, k, seed] {
          sys.server().cancel(
              JobId{(seed * 7 + static_cast<std::uint64_t>(k) * 13) % 50});
        });
  }

  sys.run_until(Time::from_seconds(3 * 3600));
  StormResult result = oracle.result();
  const obs::Counter* releases = registry.find_counter("dyn.releases");
  result.dyn_releases = releases == nullptr ? 0 : releases->value();
  return result;
}

class IncrementalStorm : public ::testing::TestWithParam<StormParams> {};

// The "rebuild path" is a cold scheduler: restored from the live one's
// service state, it plans with every cache empty.
TEST_P(IncrementalStorm, TraceIsByteIdenticalToRebuildPath) {
  const std::uint64_t seed = GetParam().seed;
  const StormResult r = run_storm(GetParam());
  RecordProperty("comparisons", static_cast<int>(r.comparisons));
  RecordProperty("decided", static_cast<int>(r.decided));
  EXPECT_GT(r.decided, 100u) << "seed " << seed;
  if (GetParam().release_churn) {
    EXPECT_GT(r.dyn_releases, 10u);
  }
  EXPECT_EQ(r.mismatches, 0u) << "seed " << seed << ", first mismatch "
                              << r.first_mismatch;
}

std::vector<StormParams> storms(std::uint64_t count, bool release_churn) {
  std::vector<StormParams> out;
  for (std::uint64_t seed = 0; seed < count; ++seed)
    out.push_back({seed, release_churn});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalStorm,
                         ::testing::ValuesIn(storms(12, false)));
INSTANTIATE_TEST_SUITE_P(ReleaseChurn, IncrementalStorm,
                         ::testing::ValuesIn(storms(6, true)));

}  // namespace
}  // namespace dbs::core

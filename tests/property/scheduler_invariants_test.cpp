// Whole-system invariants under randomized workloads: no oversubscription,
// conservation of cores, every job completes, waits are non-negative, and
// evolving bookkeeping is consistent.
#include <gtest/gtest.h>

#include <ostream>

#include "batch/experiment.hpp"
#include "cluster/cluster.hpp"
#include "workload/synthetic.hpp"

namespace dbs::batch {
namespace {

struct Params {
  std::uint64_t seed;
  double evolving_fraction;
  std::size_t reservation_depth;
  bool backfill;
  core::DfsPolicy policy;
};

// Name each case by its fields. gtest's default dump of the raw bytes
// includes the struct's padding, so the discovered ctest names would
// depend on whatever those bytes held.
void PrintTo(const Params& p, std::ostream* os) {
  const char* dfs = "none";
  switch (p.policy) {
    case core::DfsPolicy::None: break;
    case core::DfsPolicy::SingleJobDelay: dfs = "single"; break;
    case core::DfsPolicy::TargetDelay: dfs = "target"; break;
    case core::DfsPolicy::SingleAndTargetDelay: dfs = "single+target"; break;
  }
  *os << "seed=" << p.seed << " evo=" << p.evolving_fraction
      << " depth=" << p.reservation_depth
      << (p.backfill ? " backfill " : " no-backfill ") << dfs;
}

class SchedulerInvariants : public testing::TestWithParam<Params> {};

TEST_P(SchedulerInvariants, HoldUnderRandomWorkload) {
  const Params p = GetParam();

  wl::SyntheticParams wp;
  wp.job_count = 120;
  wp.total_cores = 64;
  wp.seed = p.seed;
  wp.evolving_fraction = p.evolving_fraction;
  wp.mean_interarrival = Duration::seconds(20);
  const wl::Workload workload = generate_synthetic(wp);

  SystemConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = p.reservation_depth;
  cfg.scheduler.reservation_delay_depth = 5;
  cfg.scheduler.enable_backfill = p.backfill;
  cfg.scheduler.dfs.policy = p.policy;
  cfg.scheduler.dfs.defaults.target_delay = Duration::seconds(300);
  cfg.scheduler.dfs.defaults.single_delay = Duration::seconds(600);

  BatchSystem sys(cfg);
  sys.submit_workload(workload);

  // Step through the simulation, checking cluster accounting continuously.
  while (!sys.simulator().idle()) {
    sys.simulator().step();
    sys.cluster().check_invariants();
    ASSERT_GE(sys.cluster().free_cores(), 0);
  }

  // Terminal invariants.
  EXPECT_EQ(sys.cluster().used_cores(), 0);
  const auto records = sys.recorder().records();
  ASSERT_EQ(records.size(), workload.jobs.size());
  for (const auto& r : records) {
    ASSERT_TRUE(r.completed()) << r.name << " never finished";
    EXPECT_GE(r.wait_time(), Duration::zero()) << r.name;
    EXPECT_GE(r.turnaround(), r.wait_time()) << r.name;
    EXPECT_GE(r.cores_peak, r.cores_requested) << r.name;
    EXPECT_LE(r.dyn_grants + r.dyn_rejects, r.dyn_requests) << r.name;
    if (!r.evolving) {
      EXPECT_EQ(r.dyn_requests, 0) << r.name;
      EXPECT_EQ(r.cores_peak, r.cores_requested) << r.name;
    }
  }

  // The usage integral equals the sum of per-job core-time (within the
  // per-interval sampling resolution of the recorder).
  double expected_core_seconds = 0.0;
  for (const auto& r : records) {
    // Lower bound: requested cores for the whole runtime.
    expected_core_seconds +=
        static_cast<double>(r.cores_requested) *
        (*r.end - *r.start).as_seconds();
  }
  const double measured = sys.recorder().used_core_seconds(
      sys.recorder().first_submit(), sys.recorder().last_finish());
  EXPECT_GE(measured + 1.0, expected_core_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerInvariants,
    testing::Values(
        Params{1, 0.0, 1, true, core::DfsPolicy::None},
        Params{2, 0.3, 5, true, core::DfsPolicy::None},
        Params{3, 0.3, 5, true, core::DfsPolicy::TargetDelay},
        Params{4, 0.5, 2, true, core::DfsPolicy::SingleJobDelay},
        Params{5, 0.5, 5, false, core::DfsPolicy::SingleAndTargetDelay},
        Params{6, 1.0, 3, true, core::DfsPolicy::TargetDelay},
        Params{7, 0.3, 10, true, core::DfsPolicy::SingleAndTargetDelay},
        Params{8, 0.7, 1, false, core::DfsPolicy::None}));

}  // namespace
}  // namespace dbs::batch

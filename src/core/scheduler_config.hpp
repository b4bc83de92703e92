// All administrator-facing scheduler knobs in one aggregate. Planning
// itself is not a knob: every iteration plans from the persistent physical
// profile, the plan-verdict caches and the priority-order cache.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>

#include "cluster/allocation_policy.hpp"
#include "common/time.hpp"
#include "core/dfs_policy.hpp"
#include "core/fairshare.hpp"
#include "core/priority.hpp"

namespace dbs::core {

struct SchedulerConfig {
  /// RESERVATIONDEPTH: reservations protected from backfilling.
  std::size_t reservation_depth = 1;
  /// RESERVATIONDELAYDEPTH: StartLater jobs whose delays are measured for
  /// dynamic-fairness decisions (paper §III-C, Fig. 5).
  std::size_t reservation_delay_depth = 1;
  bool enable_backfill = true;

  PriorityWeights weights;
  CredPriorities cred_priorities;
  FairshareConfig fairshare;
  DfsConfig dfs;

  /// Serve dynamic requests by preempting backfilled preemptible jobs when
  /// idle resources are insufficient (§II-B option).
  bool allow_preemption = false;
  /// Serve dynamic requests by shrinking running malleable jobs to their
  /// malleable_min (§II-B option; gentler than preemption — no progress is
  /// lost). Tried before preemption when both are enabled.
  bool allow_malleable_steal = false;
  /// Cores of a separate partition reserved for dynamic requests
  /// (§II-B option); 0 disables.
  CoreCount dynamic_partition_cores = 0;

  /// Throttling policy: at most this many eligible queued jobs per user.
  std::optional<std::size_t> max_eligible_per_user;

  /// Per-stage pipeline timing (STAGETIMING): fills
  /// IterationStats::stage_wall_us, the scheduler.stage_iteration_us.*
  /// histograms and the iteration trace event's wall_us_<stage> fields.
  /// Off by default: the seven TSC reads cost ~125 ns on virtualized
  /// hosts — real money next to a sub-microsecond iteration. dbsim always
  /// turns it on (operator tooling; iterations there are not the
  /// bottleneck).
  bool stage_timing = false;

  /// Periodic iteration when no state change occurs (Maui's timer).
  Duration poll_interval = Duration::seconds(30);

  /// Node-selection policy for placements.
  cluster::AllocationPolicy allocation_policy = cluster::AllocationPolicy::Pack;

  /// max(ReservationDepth, ReservationDelayDepth) — the number of
  /// StartLater jobs planned before dynamic requests are evaluated.
  [[nodiscard]] std::size_t delay_plan_depth() const {
    return std::max(reservation_depth, reservation_delay_depth);
  }

  void validate() const;
};

}  // namespace dbs::core

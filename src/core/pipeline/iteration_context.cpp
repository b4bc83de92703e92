#include "core/pipeline/iteration_context.hpp"

#include "core/partition.hpp"

namespace dbs::core {

const std::array<std::string_view, kStageCount>& stage_names() {
  static const std::array<std::string_view, kStageCount> names{
      "gather",   "statistics", "prioritize",
      "classify", "admission",  "start_backfill"};
  return names;
}

IterationContext::IterationContext(rms::Server& server_ref)
    : server(server_ref), applier(server_ref) {}

void IterationContext::begin_iteration(Time at, std::uint64_t iteration_number,
                                       bool dry_run) {
  now = at;
  iteration = iteration_number;
  stats = IterationStats{};
  stats.at = at;
  drain = false;
  physical_free = 0;
  prioritized.clear();
  classify_cache.reset_counters();
  start_cache.reset_counters();
  applier.begin_iteration(dry_run);
}

void IterationContext::rebuild_planning_profile(
    CoreCount dynamic_partition_cores) {
  planning = physical;
  reserve_dynamic_partition(planning, dynamic_partition_cores);
}

}  // namespace dbs::core

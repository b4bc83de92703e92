// Victim selection when a dynamic request is served by preempting running
// low-priority jobs (§II-B option: "stealing resources from preemptive
// jobs"). Only backfilled, preemptible jobs are candidates; the most
// recently started are sacrificed first (they lose the least progress).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "rms/job.hpp"

namespace dbs::core {

/// Returns job ids to preempt so that `free_now` plus the victims' cores
/// reaches at least `needed`. Empty when impossible (in which case nothing
/// should be preempted). `exclude` (typically the requesting job itself)
/// is never selected.
[[nodiscard]] std::vector<JobId> select_preemption_victims(
    std::span<const rms::Job* const> running, CoreCount needed,
    CoreCount free_now, JobId exclude = JobId::invalid());

}  // namespace dbs::core

// Malleable-job shrink planning — the §II-B "stealing resources from
// malleable jobs" servicing strategy (and the paper's §VI future work).
// Unlike preemption, shrinking loses no progress: the application adapts to
// the smaller allocation (Application::on_reshaped).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "rms/job.hpp"

namespace dbs::core {

struct MalleableShrink {
  JobId job;
  CoreCount cores = 0;  ///< cores to take away
};

/// Plans shrinks of running malleable jobs so that `free_now` plus the
/// freed cores reaches `needed`. Jobs with the largest slack
/// (allocated - malleable_min) are shrunk first, so the fewest jobs are
/// disturbed. Returns an empty plan when the target cannot be reached
/// (in which case nothing should be shrunk). `exclude` (the requesting
/// job) is never selected.
[[nodiscard]] std::vector<MalleableShrink> plan_malleable_steal(
    std::span<const rms::Job* const> running, CoreCount needed,
    CoreCount free_now, JobId exclude = JobId::invalid());

}  // namespace dbs::core

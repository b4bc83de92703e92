#include "core/malleable.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::core {

std::vector<MalleableShrink> plan_malleable_steal(
    std::span<const rms::Job* const> running, CoreCount needed,
    CoreCount free_now, JobId exclude) {
  DBS_REQUIRE(needed > 0, "steal planning needs a target");
  if (free_now >= needed) return {};

  std::vector<const rms::Job*> candidates;
  for (const rms::Job* job : running) {
    if (!job->spec().malleable() || job->id() == exclude) continue;
    if (job->allocated_cores() > job->spec().malleable_min)
      candidates.push_back(job);
  }
  const auto slack = [](const rms::Job* job) {
    return job->allocated_cores() - job->spec().malleable_min;
  };
  std::sort(candidates.begin(), candidates.end(),
            [&](const rms::Job* a, const rms::Job* b) {
              if (slack(a) != slack(b)) return slack(a) > slack(b);
              return a->id() < b->id();
            });

  std::vector<MalleableShrink> plan;
  CoreCount would_free = free_now;
  for (const rms::Job* job : candidates) {
    if (would_free >= needed) break;
    const CoreCount take = std::min(slack(job), needed - would_free);
    plan.push_back({job->id(), take});
    would_free += take;
  }
  if (would_free < needed) return {};  // shrinking cannot reach the target
  return plan;
}

}  // namespace dbs::core

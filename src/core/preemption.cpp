#include "core/preemption.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::core {

std::vector<JobId> select_preemption_victims(
    std::span<const rms::Job* const> running, CoreCount needed,
    CoreCount free_now, JobId exclude) {
  DBS_REQUIRE(needed > 0, "victim selection needs a target");
  if (free_now >= needed) return {};

  std::vector<const rms::Job*> candidates;
  for (const rms::Job* job : running)
    if (job->spec().preemptible && job->was_backfilled() &&
        job->id() != exclude)
      candidates.push_back(job);

  // Most recently started first: the cheapest progress to throw away.
  std::sort(candidates.begin(), candidates.end(),
            [](const rms::Job* a, const rms::Job* b) {
              if (a->start_time() != b->start_time())
                return a->start_time() > b->start_time();
              return a->id() > b->id();
            });

  std::vector<JobId> victims;
  CoreCount would_free = free_now;
  for (const rms::Job* job : candidates) {
    if (would_free >= needed) break;
    victims.push_back(job->id());
    would_free += job->allocated_cores();
  }
  if (would_free < needed) return {};  // preemption cannot help
  return victims;
}

}  // namespace dbs::core

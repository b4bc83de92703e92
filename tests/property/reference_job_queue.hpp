// The full-scan state filters JobQueue used before it kept state indexes,
// kept as the reference for differential testing. Each walks every live
// job in id order and keeps the ones in the wanted state: slow, but easy to
// audit, so agreement with JobQueue::queued()/running() after every
// transition transfers that confidence to the indexes.
#pragma once

#include <vector>

#include "rms/job_queue.hpp"

namespace dbs::rms::testing {

/// Jobs in Queued state, in submission (id) order.
[[nodiscard]] inline std::vector<const Job*> reference_queued(
    const JobQueue& q) {
  std::vector<const Job*> out;
  for (const Job* j : q.all())
    if (j->state() == JobState::Queued) out.push_back(j);
  return out;
}

/// Jobs in Running or DynQueued state, in id order.
[[nodiscard]] inline std::vector<const Job*> reference_running(
    const JobQueue& q) {
  std::vector<const Job*> out;
  for (const Job* j : q.all())
    if (j->is_running()) out.push_back(j);
  return out;
}

}  // namespace dbs::rms::testing

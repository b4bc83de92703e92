// The from-scratch physical availability profile, the reference for the
// persistent PhysicalProfileTracker: capacity minus every running job's
// hold (to its clamped walltime end) minus the unused cores of down nodes.
// After advance(now) the tracker must equal it, breakpoint for breakpoint.
#pragma once

#include "core/availability_profile.hpp"
#include "core/physical_profile.hpp"
#include "rms/server.hpp"

namespace dbs::core::testing {

[[nodiscard]] inline AvailabilityProfile reference_physical_profile(
    const rms::Server& server, Time now) {
  const cluster::Cluster& cl = server.cluster();
  AvailabilityProfile physical(now, cl.total_cores());
  for (const rms::Job* job : server.jobs().running())
    physical.subtract(now, hold_end_for(*job, now), job->allocated_cores());
  // Down/offline nodes: their unused cores are unavailable indefinitely.
  if (const CoreCount down = cl.unavailable_free_cores(); down > 0)
    physical.subtract(now, Time::far_future(), down);
  return physical;
}

}  // namespace dbs::core::testing

// A step function of free cores over future time. The scheduler plans
// against it: running jobs and reservations subtract capacity over their
// intervals; earliest_fit answers "when could `cores` run for `dur`?".
//
// Stored as a flat sorted vector of breakpoints rather than a std::map:
// every query is a cache-friendly binary search and every mutation a
// contiguous segment sweep, so copying a profile (which planning does once
// per pass) is a single memcpy and copy-assignment reuses the destination's
// capacity without allocating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::core {

class AvailabilityProfile {
 public:
  /// A breakpoint: `free` cores from `at` until the next breakpoint; the
  /// last breakpoint extends to +inf.
  struct Step {
    Time at;
    CoreCount free;
  };

  /// Empty profile (zero capacity at epoch); a placeholder for scratch
  /// storage that is copy-assigned before use.
  AvailabilityProfile() : AvailabilityProfile(Time::epoch(), 0) {}

  /// Constant `capacity` free cores from `origin` to infinity.
  AvailabilityProfile(Time origin, CoreCount capacity);

  [[nodiscard]] Time origin() const { return origin_; }
  [[nodiscard]] CoreCount capacity() const { return capacity_; }

  /// Free cores at time `t` (t >= origin).
  [[nodiscard]] CoreCount free_at(Time t) const;

  /// Minimum free cores over [from, to); requires from < to.
  [[nodiscard]] CoreCount min_free(Time from, Time to) const;

  /// True iff `cores` fit continuously over [at, at + dur).
  [[nodiscard]] bool can_fit(Time at, Duration dur, CoreCount cores) const;

  /// Removes `cores` over [from, to). The interval is clipped at origin.
  /// Precondition: the result never goes negative (check can_fit first).
  /// Intervals at or beyond the last breakpoint (the persistent-profile
  /// append and far-future cases) take an O(1) push_back fast path instead
  /// of two binary searches with mid-vector inserts.
  void subtract(Time from, Time to, CoreCount cores);

  /// Adds `cores` back over [from, to) (inverse of subtract); the result
  /// must not exceed capacity.
  void add(Time from, Time to, CoreCount cores);

  /// Like subtract, but clamps each segment at zero instead of requiring
  /// feasibility (used for the reserved dynamic partition, which may overlap
  /// cores already held by running jobs).
  void subtract_clamped(Time from, Time to, CoreCount cores);

  /// Earliest t >= not_before such that `cores` fit over [t, t + dur).
  /// Returns Time::far_future() if cores > capacity. Single forward sweep:
  /// O(breakpoints), not O(breakpoints^2).
  [[nodiscard]] Time earliest_fit(CoreCount cores, Duration dur,
                                  Time not_before) const;

  /// Moves the origin forward to `now` (>= origin), dropping breakpoints
  /// that are entirely in the past. The persistent physical profile calls
  /// this once per iteration instead of rebuilding from the running set.
  void advance_origin(Time now);

  /// Removes breakpoints whose free count equals the preceding segment's.
  /// Such redundant steps arise from add/advance/clamp patch sequences;
  /// after coalescing, the representation is the unique minimal one for
  /// the step function, so two equal profiles compare equal byte-for-byte.
  void coalesce();

  /// Structural equality: same origin, capacity and breakpoint vector.
  /// Compare canonical (coalesced) profiles, where representation equality
  /// is function equality.
  [[nodiscard]] bool operator==(const AvailabilityProfile& other) const {
    return origin_ == other.origin_ && capacity_ == other.capacity_ &&
           steps_.size() == other.steps_.size() &&
           std::equal(steps_.begin(), steps_.end(), other.steps_.begin(),
                      [](const Step& a, const Step& b) {
                        return a.at == b.at && a.free == b.free;
                      });
  }
  [[nodiscard]] bool operator!=(const AvailabilityProfile& other) const {
    return !(*this == other);
  }

  /// Zero-copy step access for profile-walking callers (the plan cache's
  /// staircase rebuild); indices are invalidated by any mutation.
  [[nodiscard]] const Step& step(std::size_t i) const { return steps_[i]; }
  /// Index of the segment covering `t` (t >= origin).
  [[nodiscard]] std::size_t segment_of(Time t) const {
    return segment_index(t);
  }

  /// The (time, free) breakpoints, for tests and debugging.
  [[nodiscard]] std::vector<std::pair<Time, CoreCount>> breakpoints() const;

  /// Number of stored breakpoints (profile size diagnostics).
  [[nodiscard]] std::size_t step_count() const { return steps_.size(); }

 private:
  /// Index of the segment covering `t` (t >= origin).
  [[nodiscard]] std::size_t segment_index(Time t) const;
  /// Ensures a breakpoint exists at `t` (splitting the covering segment);
  /// returns its index. For t <= origin returns 0.
  std::size_t ensure_breakpoint(Time t);

  Time origin_;
  CoreCount capacity_;
  /// Sorted by `at`; steps_[0].at == origin always.
  std::vector<Step> steps_;
};

}  // namespace dbs::core

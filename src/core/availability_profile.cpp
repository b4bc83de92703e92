#include "core/availability_profile.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::core {

AvailabilityProfile::AvailabilityProfile(Time origin, CoreCount capacity)
    : origin_(origin), capacity_(capacity) {
  DBS_REQUIRE(capacity >= 0, "capacity must be non-negative");
  steps_.reserve(16);
  steps_.push_back({origin, capacity});
}

std::size_t AvailabilityProfile::segment_index(Time t) const {
  DBS_REQUIRE(t >= origin_, "query before profile origin");
  // Planning queries overwhelmingly probe at the origin ("now") or past the
  // final breakpoint; both skip the binary search.
  if (steps_.size() == 1 || t < steps_[1].at) return 0;
  if (t >= steps_.back().at) return steps_.size() - 1;
  // Last breakpoint with at <= t.
  const auto it = std::upper_bound(
      steps_.begin() + 1, steps_.end(), t,
      [](Time v, const Step& s) { return v < s.at; });
  return static_cast<std::size_t>(it - steps_.begin()) - 1;
}

CoreCount AvailabilityProfile::free_at(Time t) const {
  return steps_[segment_index(t)].free;
}

CoreCount AvailabilityProfile::min_free(Time from, Time to) const {
  DBS_REQUIRE(from < to, "empty interval");
  std::size_t i = segment_index(from);
  CoreCount lo = steps_[i].free;
  for (++i; i < steps_.size() && steps_[i].at < to; ++i)
    lo = std::min(lo, steps_[i].free);
  return lo;
}

bool AvailabilityProfile::can_fit(Time at, Duration dur, CoreCount cores) const {
  if (dur <= Duration::zero()) return cores <= free_at(at);
  return min_free(at, at + dur) >= cores;
}

std::size_t AvailabilityProfile::ensure_breakpoint(Time t) {
  if (t <= origin_) return 0;
  const auto it = std::lower_bound(
      steps_.begin(), steps_.end(), t,
      [](const Step& s, Time v) { return s.at < v; });
  const auto idx = static_cast<std::size_t>(it - steps_.begin());
  if (it != steps_.end() && it->at == t) return idx;
  DBS_ASSERT(idx > 0, "profile missing origin breakpoint");
  steps_.insert(it, Step{t, steps_[idx - 1].free});
  return idx;
}

void AvailabilityProfile::subtract(Time from, Time to, CoreCount cores) {
  DBS_REQUIRE(cores >= 0, "negative subtraction");
  if (cores == 0) return;
  from = max(from, origin_);
  if (from >= to) return;
  if (from >= steps_.back().at) {
    // Append-at-end: the interval starts at or after the last breakpoint,
    // so no existing segment is split — two push_backs replace the binary
    // searches and mid-vector inserts of the general path. The resulting
    // breakpoint layout is identical to the general path's.
    const CoreCount tail_free = steps_.back().free;
    if (from > steps_.back().at) steps_.push_back({from, tail_free});
    steps_.push_back({to, tail_free});
    Step& cut = steps_[steps_.size() - 2];
    cut.free -= cores;
    DBS_ASSERT(cut.free >= 0, "profile oversubscribed");
    return;
  }
  const std::size_t first = ensure_breakpoint(from);
  const std::size_t last = ensure_breakpoint(to);  // to > from: `first` stable
  for (std::size_t i = first; i < last; ++i) {
    steps_[i].free -= cores;
    DBS_ASSERT(steps_[i].free >= 0, "profile oversubscribed");
  }
}

void AvailabilityProfile::add(Time from, Time to, CoreCount cores) {
  DBS_REQUIRE(cores >= 0, "negative addition");
  if (cores == 0) return;
  from = max(from, origin_);
  if (from >= to) return;
  const std::size_t first = ensure_breakpoint(from);
  const std::size_t last = ensure_breakpoint(to);
  for (std::size_t i = first; i < last; ++i) {
    steps_[i].free += cores;
    DBS_ASSERT(steps_[i].free <= capacity_, "profile exceeds capacity");
  }
}

void AvailabilityProfile::subtract_clamped(Time from, Time to,
                                           CoreCount cores) {
  DBS_REQUIRE(cores >= 0, "negative subtraction");
  if (cores == 0) return;
  from = max(from, origin_);
  if (from >= to) return;
  const std::size_t first = ensure_breakpoint(from);
  const std::size_t last = ensure_breakpoint(to);
  for (std::size_t i = first; i < last; ++i)
    steps_[i].free = std::max<CoreCount>(0, steps_[i].free - cores);
}

Time AvailabilityProfile::earliest_fit(CoreCount cores, Duration dur,
                                       Time not_before) const {
  DBS_REQUIRE(cores > 0, "fit query needs cores");
  DBS_REQUIRE(dur > Duration::zero(), "fit query needs a duration");
  if (cores > capacity_) return Time::far_future();
  // One forward sweep: `candidate` is the start of the current run of
  // segments with >= cores free. A too-low segment pushes the candidate to
  // the segment's end; a run long enough to cover `dur` wins.
  Time candidate = max(not_before, origin_);
  for (std::size_t i = segment_index(candidate); i < steps_.size(); ++i) {
    if (steps_[i].free < cores) {
      if (i + 1 == steps_.size()) return Time::far_future();
      candidate = steps_[i + 1].at;
      continue;
    }
    const bool is_last = i + 1 == steps_.size();
    if (is_last || steps_[i + 1].at >= candidate + dur) return candidate;
  }
  DBS_ASSERT(false, "unreachable: last segment always terminates the sweep");
  return Time::far_future();
}

void AvailabilityProfile::advance_origin(Time now) {
  DBS_REQUIRE(now >= origin_, "origin may only advance");
  if (now == origin_) return;
  const std::size_t covering = segment_index(now);
  if (covering > 0)
    steps_.erase(steps_.begin(),
                 steps_.begin() + static_cast<std::ptrdiff_t>(covering));
  steps_[0].at = now;
  origin_ = now;
}

void AvailabilityProfile::coalesce() {
  std::size_t w = 1;
  for (std::size_t r = 1; r < steps_.size(); ++r)
    if (steps_[r].free != steps_[w - 1].free) steps_[w++] = steps_[r];
  steps_.resize(w);
}

std::vector<std::pair<Time, CoreCount>> AvailabilityProfile::breakpoints() const {
  std::vector<std::pair<Time, CoreCount>> out;
  out.reserve(steps_.size());
  for (const Step& s : steps_) out.emplace_back(s.at, s.free);
  return out;
}

}  // namespace dbs::core

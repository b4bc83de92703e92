// The event queue the simulator used before its heap held POD entries
// with callbacks in a generation-checked slab, kept verbatim as the
// reference for differential testing: a heap of entries that each own
// their std::function, with pending and cancelled ids tracked in two hash
// sets. Only the class name and the header-only packaging changed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace dbs::sim::testing {

class ReferenceEventQueue {
 public:
  /// Enqueues `fn` to fire at `at`. Events with equal time and lane fire
  /// in insertion order; at equal times the Submission lane fires first.
  /// Returns a handle usable with cancel().
  EventId push(Time at, EventFn fn, Lane lane = Lane::Normal);

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed — and records a tombstone only
  /// for genuinely pending events, so repeated cancels of fired ids do not
  /// accumulate state.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const;
  /// Exact number of pending (non-cancelled) events, O(1).
  [[nodiscard]] std::size_t size() const;
  /// Cancelled entries still lingering in the heap as tombstones, O(1).
  [[nodiscard]] std::size_t cancelled_count() const {
    return cancelled_.size();
  }
  /// Times the heap was rebuilt to shed tombstones (observability).
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  /// Time of the earliest pending (non-cancelled) event.
  /// Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest event. Precondition: !empty().
  std::pair<Time, EventFn> pop();

  /// Pops every event with time <= `until` in firing order and hands each
  /// to `fire(at, fn)`. Returns the number of events fired. `fire` may
  /// push new events; those landing inside the horizon are drained too.
  /// This is the one drain loop behind Simulator::run/run_until and the
  /// service loop, so the tombstone/ordering subtleties live in one place.
  template <typename Fire>
  std::uint64_t drain_until(Time until, Fire&& fire) {
    std::uint64_t n = 0;
    while (!empty() && next_time() <= until) {
      auto [at, fn] = pop();
      fire(at, std::move(fn));
      ++n;
    }
    return n;
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventId id;
    Lane lane;
    EventFn fn;
  };
  /// Min-heap order via std::*_heap's max-heap convention: `a` sorts
  /// later than `b` when it fires after it — later time, then (equal
  /// times) the Normal lane, then higher sequence number.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.lane != b.lane) return a.lane > b.lane;
      return a.seq > b.seq;
    }
  };

  /// Drops cancelled entries from the front.
  void skip_tombstones() const;
  /// Rebuilds the heap without the tombstones once they dominate it, so
  /// a workload that cancels most of what it schedules (coalesced
  /// scheduler triggers, negotiation timeouts) keeps the heap at
  /// O(pending) instead of O(pushed).
  void maybe_compact();

  // Invariant: the heap holds exactly pending_ ∪ cancelled_ (cancelled
  // entries linger as interior tombstones until they surface at the top
  // or a compaction sheds them), so pending_.size() is the exact live
  // count.
  mutable std::vector<Entry> heap_;
  mutable std::unordered_set<EventId> cancelled_;
  std::unordered_set<EventId> pending_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

namespace reference_detail {
// Compaction is amortized: it only triggers once tombstones outnumber
// live entries AND the heap is big enough that a rebuild is worth the
// bookkeeping. Each rebuild is O(heap) and removes > heap/2 entries, so
// the cost per cancelled event stays O(1) amortized (plus the O(log n)
// of the original push).
constexpr std::size_t kCompactMinHeap = 64;
}  // namespace reference_detail

inline EventId ReferenceEventQueue::push(Time at, EventFn fn, Lane lane) {
  DBS_REQUIRE(fn != nullptr, "event must have an action");
  const EventId id{next_seq_};
  heap_.push_back(Entry{at, next_seq_, id, lane, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_.insert(id);
  ++next_seq_;
  return id;
}

inline bool ReferenceEventQueue::cancel(EventId id) {
  // Only a genuinely pending event can be cancelled. Fired, already
  // cancelled or never-existing ids fail without leaving a tombstone —
  // otherwise a caller retrying cancels of fired ids would grow
  // `cancelled_` without bound.
  if (pending_.erase(id) == 0) return false;
  cancelled_.insert(id);
  maybe_compact();
  return true;
}

inline void ReferenceEventQueue::maybe_compact() {
  if (heap_.size() < reference_detail::kCompactMinHeap) return;
  if (cancelled_.size() * 2 <= heap_.size()) return;
  std::erase_if(heap_,
                [this](const Entry& e) { return cancelled_.contains(e.id); });
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++compactions_;
}

inline void ReferenceEventQueue::skip_tombstones() const {
  while (!heap_.empty() && cancelled_.contains(heap_.front().id)) {
    cancelled_.erase(heap_.front().id);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

inline bool ReferenceEventQueue::empty() const { return pending_.empty(); }

inline std::size_t ReferenceEventQueue::size() const { return pending_.size(); }

inline Time ReferenceEventQueue::next_time() const {
  skip_tombstones();
  DBS_REQUIRE(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().at;
}

inline std::pair<Time, EventFn> ReferenceEventQueue::pop() {
  skip_tombstones();
  DBS_REQUIRE(!heap_.empty(), "pop() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry& top = heap_.back();
  std::pair<Time, EventFn> out{top.at, std::move(top.fn)};
  pending_.erase(top.id);
  heap_.pop_back();
  return out;
}

}  // namespace dbs::sim::testing

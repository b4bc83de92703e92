// Time-ordered event queue with stable FIFO ordering for equal timestamps
// and amortized O(1) cancellation.
//
// The heap holds only small POD entries (time, ordering key, slot index);
// the callbacks live in a slab of slots recycled through a free list. An
// EventId is `generation << 32 | slot`: every time a slot is released (its
// event fired, or its cancelled entry left the heap) the slot's generation
// is bumped, so a stale id — a fired event, a cancelled one, or one whose
// slot has since been reused — never matches again. Cancelling frees the
// callback (and its captures) at once; the heap entry lingers as a
// tombstone until it surfaces at the top or a majority-rule compaction
// sheds it.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::sim {

/// The action executed when an event fires.
using EventFn = std::function<void()>;

/// Ordering lane for events that share a timestamp. Submission-lane
/// events (workload arrivals) fire before normal-lane events at the same
/// instant regardless of push order, which is what makes a streaming
/// submission source — which pushes arrivals lazily, interleaved with the
/// run — order-equivalent to materializing the whole workload up front
/// (where every arrival gets an earlier sequence number than anything
/// scheduled during the run).
enum class Lane : std::uint8_t { Submission = 0, Normal = 1 };

class EventQueue {
 public:
  /// Enqueues `fn` to fire at `at`. Events with equal time and lane fire
  /// in insertion order; at equal times the Submission lane fires first.
  /// Returns a handle usable with cancel().
  EventId push(Time at, EventFn fn, Lane lane = Lane::Normal);

  /// Cancels a pending event and destroys its callback. Returns false if
  /// it already fired, was already cancelled, or never existed; such calls
  /// change nothing.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Exact number of pending (non-cancelled) events, O(1).
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Cancelled entries still lingering in the heap as tombstones, O(1).
  [[nodiscard]] std::size_t cancelled_count() const { return tombstones_; }
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
  /// `key` is `lane << 63 | seq`, so ordering by (at, key) is ordering by
  /// (time, lane, push sequence).
  struct Entry {
    Time at;
    std::uint64_t key;
    std::uint32_t slot;
  };
  /// Min-heap order via std::*_heap's max-heap convention: `a` sorts
  /// later than `b` when it fires after it.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.key > b.key;
    }
  };
  enum class SlotState : std::uint8_t { Free, Pending, Cancelled };
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    SlotState state = SlotState::Free;
  };

  /// Bumps the slot's generation and returns it to the free list; a slot
  /// whose generation would wrap is retired instead, so no id is reissued.
  void release(std::uint32_t slot) const;
  /// Drops cancelled entries from the front.
  void skip_tombstones() const;
  /// Rebuilds the heap without the tombstones once they dominate it, so
  /// a workload that cancels most of what it schedules (coalesced
  /// scheduler triggers, negotiation timeouts) keeps the heap at
  /// O(pending) instead of O(pushed).
  void maybe_compact();

  // Invariant: the heap holds one entry per Pending or Cancelled slot;
  // live_ counts the Pending ones and tombstones_ the Cancelled ones.
  // Shedding a tombstone from the top mutates these in const next_time().
  mutable std::vector<Entry> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_;
  mutable std::size_t tombstones_ = 0;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace dbs::sim

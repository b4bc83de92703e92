#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace dbs::sim {

namespace {
// Compaction is amortized: it only triggers once tombstones outnumber
// live entries AND the heap is big enough that a rebuild is worth the
// bookkeeping. Each rebuild is O(heap) and removes > heap/2 entries, so
// the cost per cancelled event stays O(1) amortized (plus the O(log n)
// of the original push).
constexpr std::size_t kCompactMinHeap = 64;
constexpr std::uint32_t kMaxGen = std::numeric_limits<std::uint32_t>::max();
// Slot index 2^32 - 1 would let EventId::invalid() name a real slot.
constexpr std::size_t kMaxSlots = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kLaneBit = std::uint64_t{1} << 63;
}  // namespace

EventId EventQueue::push(Time at, EventFn fn, Lane lane) {
  DBS_REQUIRE(fn != nullptr, "event must have an action");
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    DBS_REQUIRE(slots_.size() < kMaxSlots, "event slab exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.state = SlotState::Pending;
  const std::uint64_t key =
      (lane == Lane::Normal ? kLaneBit : 0) | next_seq_++;
  heap_.push_back(Entry{at, key, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return EventId{std::uint64_t{s.gen} << 32 | slot};
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot = id.value() & 0xffff'ffffU;
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != id.value() >> 32 || s.state != SlotState::Pending) return false;
  s.state = SlotState::Cancelled;
  s.fn = nullptr;
  --live_;
  ++tombstones_;
  maybe_compact();
  return true;
}

void EventQueue::release(std::uint32_t slot) const {
  Slot& s = slots_[slot];
  s.state = SlotState::Free;
  if (s.gen == kMaxGen) return;
  ++s.gen;
  free_.push_back(slot);
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactMinHeap) return;
  if (tombstones_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Entry& e) {
    if (slots_[e.slot].state != SlotState::Cancelled) return false;
    release(e.slot);
    return true;
  });
  tombstones_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++compactions_;
}

void EventQueue::skip_tombstones() const {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].state == SlotState::Cancelled) {
    release(heap_.front().slot);
    --tombstones_;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

Time EventQueue::next_time() const {
  skip_tombstones();
  DBS_REQUIRE(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().at;
}

std::pair<Time, EventFn> EventQueue::pop() {
  skip_tombstones();
  DBS_REQUIRE(!heap_.empty(), "pop() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  // Moved out before the caller runs it: a callback that pushes may grow
  // (and so reallocate) slots_.
  std::pair<Time, EventFn> out{top.at,
                               std::exchange(slots_[top.slot].fn, nullptr)};
  release(top.slot);
  --live_;
  return out;
}

}  // namespace dbs::sim

// Differential test: EventQueue (POD heap entries, callbacks in a
// generation-checked slab) must agree with the hash-set reference queue
// on every observable after every operation of a long random script —
// the fire order, size(), empty(), next_time(), every cancel() result,
// and the tombstone and compaction counters. The script pushes on both
// lanes with colliding times, cancels pending, fired, already-cancelled
// and never-issued ids, pops, peeks, and pushes from inside fired
// callbacks, so slots are reused across many generations while stale ids
// keep being cancelled.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace dbs::sim {
namespace {

using testing::ReferenceEventQueue;

/// One event as both queues know it: the same token, two ids.
struct Handle {
  EventId mine;
  EventId ref;
};

/// How often each path of the script ran, so the test can assert that
/// it exercised what it claims to.
struct Coverage {
  std::uint64_t callback_pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t cancels_ok = 0;
  std::uint64_t stale_cancels = 0;
  std::uint64_t unissued_cancels = 0;
};

class Lockstep {
 public:
  explicit Lockstep(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      step();
      compare_state();
    }
    // Drain: everything left fires identically, children included.
    while (!ref_.empty() && !::testing::Test::HasFailure()) {
      pop_both();
      compare_state();
    }
    EXPECT_TRUE(mine_.empty());
  }

  [[nodiscard]] const Coverage& coverage() const { return cov_; }
  [[nodiscard]] std::uint64_t compactions() const {
    return mine_.compactions();
  }

 private:
  void step() {
    const std::uint64_t roll = rng_.next_below(100);
    // Bias toward popping once the queue is deep, so slots are recycled.
    const bool deep = ref_.size() > 400;
    if (roll < (deep ? 20U : 40U)) {
      push(Time::from_seconds(floor_ + rng_.next_int(0, 20)),
           rng_.next_below(4) == 0 ? Lane::Submission : Lane::Normal);
    } else if (roll < 60) {
      cancel_issued();
    } else if (roll < 65) {
      cancel_unissued();
    } else if (roll < 67) {
      cancel_burst();
    } else if (roll < 92) {
      if (!ref_.empty()) pop_both();
    } else if (!ref_.empty()) {
      ASSERT_EQ(mine_.next_time(), ref_.next_time());
    }
  }

  void push(Time at, Lane lane) {
    const std::size_t token = handles_.size();
    handles_.push_back(Handle{
        mine_.push(at, [this, token, at] { fire(false, token, at); }, lane),
        ref_.push(at, [this, token, at] { fire(true, token, at); }, lane)});
  }

  /// The callback of `token`: log it and, for every third token, push a
  /// child at the same instant or just after (on the token's parity lane).
  /// The two queues' callbacks each push into their own queue; pop_both
  /// pairs the children up into one Handle.
  void fire(bool ref, std::size_t token, Time at) {
    (ref ? ref_fired_ : mine_fired_).push_back(token);
    if (token % 3 != 0) return;
    const Time child_at =
        at + Duration::seconds(static_cast<std::int64_t>(token % 2));
    const Lane lane = token % 2 == 0 ? Lane::Normal : Lane::Submission;
    const std::size_t child = handles_.size() + (ref ? ref_children_.size()
                                                     : mine_children_.size());
    if (ref) {
      ref_children_.push_back(ref_.push(
          child_at, [this, child, child_at] { fire(true, child, child_at); },
          lane));
    } else {
      mine_children_.push_back(mine_.push(
          child_at, [this, child, child_at] { fire(false, child, child_at); },
          lane));
    }
  }

  void pop_both() {
    ASSERT_FALSE(mine_.empty());
    auto [mine_at, mine_fn] = mine_.pop();
    auto [ref_at, ref_fn] = ref_.pop();
    ASSERT_EQ(mine_at, ref_at);
    floor_ = mine_at.as_micros() / 1'000'000;
    mine_fn();
    ref_fn();
    ASSERT_EQ(mine_fired_.size(), ref_fired_.size());
    ASSERT_EQ(mine_fired_.back(), ref_fired_.back()) << "fire order diverged";
    ASSERT_EQ(mine_children_.size(), ref_children_.size());
    for (std::size_t i = 0; i < ref_children_.size(); ++i)
      handles_.push_back(Handle{mine_children_[i], ref_children_[i]});
    cov_.callback_pushes += ref_children_.size();
    mine_children_.clear();
    ref_children_.clear();
    ++cov_.pops;
  }

  void cancel(const Handle& h) {
    const bool want = ref_.cancel(h.ref);
    ASSERT_EQ(mine_.cancel(h.mine), want);
    if (want)
      ++cov_.cancels_ok;
    else
      ++cov_.stale_cancels;
  }

  /// A random issued id: pending, fired or already cancelled.
  void cancel_issued() {
    if (handles_.empty()) return;
    cancel(handles_[rng_.next_below(handles_.size())]);
  }

  /// Ids neither queue ever issued: past the reference's sequence, a
  /// generation the slab has not reached, a slot past its end, invalid().
  void cancel_unissued() {
    const std::uint64_t k = rng_.next_below(4);
    const std::uint64_t slot = rng_.next_below(handles_.size() + 8);
    const EventId mine =
        k == 0 ? EventId::invalid()
        : k == 1 ? EventId{(std::uint64_t{0xffff'fff0} << 32) | slot}
                 : EventId{std::uint64_t{0xffff'ff00} + slot % 0xf0};
    const EventId ref = k == 0 ? EventId::invalid()
                               : EventId{handles_.size() + 1000 + slot};
    EXPECT_FALSE(ref_.cancel(ref));
    ASSERT_FALSE(mine_.cancel(mine));
    ++cov_.unissued_cancels;
  }

  /// Cancels most of the recent ids at once, so tombstones outnumber live
  /// entries and both queues compact.
  void cancel_burst() {
    const std::size_t from = handles_.size() > 600 ? handles_.size() - 600 : 0;
    for (std::size_t i = from; i < handles_.size(); ++i)
      if (i % 5 != 0) cancel(handles_[i]);
  }

  void compare_state() {
    ASSERT_EQ(mine_.size(), ref_.size());
    ASSERT_EQ(mine_.empty(), ref_.empty());
    ASSERT_EQ(mine_.cancelled_count(), ref_.cancelled_count());
    ASSERT_EQ(mine_.compactions(), ref_.compactions());
  }

  Rng rng_;
  EventQueue mine_;
  ReferenceEventQueue ref_;
  std::vector<Handle> handles_;
  std::vector<std::size_t> mine_fired_;
  std::vector<std::size_t> ref_fired_;
  std::vector<EventId> mine_children_;
  std::vector<EventId> ref_children_;
  std::int64_t floor_ = 0;
  Coverage cov_;
};

class EventQueueDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDifferential, LockstepWithReference) {
  Lockstep run(GetParam());
  run.run(25'000);
  const Coverage& c = run.coverage();
  EXPECT_GT(c.pops, 1000U);
  EXPECT_GT(c.callback_pushes, 100U);
  EXPECT_GT(c.cancels_ok, 100U);
  EXPECT_GT(c.stale_cancels, 100U);
  EXPECT_GT(c.unissued_cancels, 100U);
  EXPECT_GT(run.compactions(), 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dbs::sim

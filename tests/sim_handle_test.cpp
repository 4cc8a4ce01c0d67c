// Regression tests for EventHandle lifetime semantics on the slab-backed
// engine: cancel-after-fire, double-cancel, generation ABA across slot
// reuse, handles outliving run(), and default-constructed / moved-from
// handles. These pin down the contract that used to be implicit (and in
// the case of pending() on an empty handle, broken) in the shared_ptr
// engine. The last group covers retime and continuations, which keep an
// event's sequence number.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace canary::sim {
namespace {

TEST(SimHandleTest, DefaultConstructedHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(SimHandleTest, CancelAfterFireIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // the event already fired; this must change nothing
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimHandleTest, DoubleCancelIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  h.cancel();
  EXPECT_FALSE(h.pending());
  h.cancel();  // second cancel on the same handle
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimHandleTest, CopiedHandlesShareTheEvent) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  EventHandle b = a;
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();
  EXPECT_FALSE(b.pending());
  b.cancel();  // already cancelled through the copy
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimHandleTest, MovedFromHandleIsInert) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  EventHandle b = std::move(a);
  EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move): on purpose
  a.cancel();                 // must not cancel the event b now owns
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimHandleTest, MoveAssignSelfIsSafe) {
  Simulator sim;
  EventHandle a = sim.schedule_after(Duration::msec(1), [] {});
  EventHandle* alias = &a;  // defeat -Wself-move
  a = std::move(*alias);
  EXPECT_TRUE(a.pending());
  a.cancel();
  EXPECT_FALSE(a.pending());
}

// The ABA scenario: a stale handle whose slot has been freed and reused
// by a newer event must neither report pending nor cancel the newcomer.
TEST(SimHandleTest, StaleHandleDoesNotTouchReusedSlot) {
  Simulator sim;
  int first_fired = 0;
  int second_fired = 0;
  EventHandle first =
      sim.schedule_after(Duration::msec(1), [&] { ++first_fired; });
  sim.run();  // fires; the slot goes back on the free list
  EXPECT_EQ(first_fired, 1);

  // The next schedule reuses the same slab slot with a bumped generation.
  EventHandle second =
      sim.schedule_after(Duration::msec(1), [&] { ++second_fired; });
  EXPECT_FALSE(first.pending());
  first.cancel();  // stale: must not cancel `second`
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_EQ(second_fired, 1);
}

TEST(SimHandleTest, StaleHandleAfterCancelDoesNotTouchReusedSlot) {
  Simulator sim;
  int fired = 0;
  EventHandle doomed = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  doomed.cancel();
  sim.run();  // reclaims the cancelled slot
  EXPECT_EQ(fired, 0);

  EventHandle fresh = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  EXPECT_FALSE(doomed.pending());
  doomed.cancel();
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
}

// Handles must stay safe to query and cancel after run() drained the
// queue — slots freed at dispatch keep their records alive in the slab.
TEST(SimHandleTest, HandlesOutliveRun) {
  Simulator sim;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(
        sim.schedule_after(Duration::msec(i + 1), [&] { ++fired; }));
  }
  sim.run();
  EXPECT_EQ(fired, 100);
  for (auto& h : handles) {
    EXPECT_FALSE(h.pending());
    h.cancel();
  }
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(SimHandleTest, PendingCountExcludesCancelledEvents) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_after(Duration::msec(1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  for (int i = 0; i < 4; ++i) handles[i].cancel();
  EXPECT_EQ(sim.pending_events(), 6u);
  EXPECT_FALSE(sim.empty());
  for (int i = 4; i < 10; ++i) handles[i].cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
}

// Mass cancellation triggers the lazy-deletion compaction; the surviving
// events must still fire exactly once, in time order.
TEST(SimHandleTest, CompactionPreservesSurvivors) {
  SimulatorOptions options;
  options.compact_min = 16;
  Simulator sim(options);
  std::vector<EventHandle> doomed;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) {
    if (i % 10 == 0) {
      const int tag = i;
      sim.schedule_after(Duration::msec(1000 - i), [&, tag] {
        fired.push_back(tag);
      });
    } else {
      doomed.push_back(sim.schedule_after(Duration::msec(1000 - i), [] {}));
    }
  }
  for (auto& h : doomed) h.cancel();
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.run();
  ASSERT_EQ(fired.size(), 100u);
  // Scheduled at msec(1000 - i) for i = 0,10,...,990: fires in
  // descending-tag order.
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], 990 - static_cast<int>(k) * 10);
  }
  EXPECT_EQ(sim.executed_events(), 100u);
}

// run_until must not dispatch an event past `until` even when cancelled
// tombstones precede it in the heap (regression: the old engine popped a
// tombstone below the horizon and then dispatched the next live event
// unconditionally, even if it was past the horizon).
TEST(SimHandleTest, RunUntilHonorsHorizonPastCancelledHead) {
  Simulator sim;
  EventHandle early = sim.schedule_after(Duration::msec(1), [] {});
  int late_fired = 0;
  sim.schedule_after(Duration::msec(100), [&] { ++late_fired; });
  early.cancel();
  EXPECT_EQ(sim.run_until(TimePoint::origin() + Duration::msec(10)), 0u);
  EXPECT_EQ(late_fired, 0);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::msec(10));
  sim.run();
  EXPECT_EQ(late_fired, 1);
}

TEST(SimHandleTest, CancelFromWithinAnEarlierEvent) {
  Simulator sim;
  int victim_fired = 0;
  EventHandle victim =
      sim.schedule_after(Duration::msec(5), [&] { ++victim_fired; });
  sim.schedule_after(Duration::msec(1), [&] { victim.cancel(); });
  sim.run();
  EXPECT_EQ(victim_fired, 0);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimHandleTest, RescheduleFromCallbackReusesSlotsSafely) {
  Simulator sim;
  // A self-rescheduling chain: each firing frees its slot before running,
  // so the re-schedule from inside the callback reuses it immediately —
  // the prior generation's handle must stay inert throughout.
  int hops = 0;
  EventHandle last;
  std::function<void()> schedule_next = [&] {
    ++hops;
    if (hops < 50) {
      EventHandle prev = last;
      last = sim.schedule_after(Duration::msec(1),
                                [&] { schedule_next(); });
      EXPECT_FALSE(prev.pending());
      prev.cancel();
      EXPECT_TRUE(last.pending());
    }
  };
  last = sim.schedule_after(Duration::msec(1), [&] { schedule_next(); });
  sim.run();
  EXPECT_EQ(hops, 50);
  EXPECT_EQ(sim.executed_events(), 50u);
}

// ---- retime and continuations ---------------------------------------------

TEST(SimHandleTest, RetimeKeepsTheSequenceNumber) {
  Simulator sim;
  std::vector<char> order;
  const TimePoint t = TimePoint::origin() + Duration::msec(10);
  EventHandle a =
      sim.schedule_at(t + Duration::msec(5), [&] { order.push_back('a'); });
  sim.schedule_at(t, [&] { order.push_back('b'); });
  EventHandle c = sim.schedule_at(t, [&] { order.push_back('c'); });
  // Moved onto `b`'s timestamp, `a` ties ahead of it: it was scheduled
  // first. Moved away and back, `c` keeps its place behind `b`.
  a.retime(t);
  c.retime(t + Duration::msec(7));
  c.retime(t);
  EXPECT_TRUE(a.pending());
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimHandleTest, RetimeMovesEarlierAndLater) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  EventHandle early = sim.schedule_after(
      Duration::msec(30), [&] { fired_at.push_back(sim.now().count_usec()); });
  EventHandle late = sim.schedule_after(
      Duration::msec(10), [&] { fired_at.push_back(sim.now().count_usec()); });
  early.retime(TimePoint::origin() + Duration::msec(5));
  late.retime(TimePoint::origin() + Duration::msec(40));
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{5000, 40000}));
}

TEST(SimHandleTest, RetimeAfterFireOrCancelIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventHandle done = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  sim.run();
  done.retime(TimePoint::origin() + Duration::msec(5));
  EXPECT_FALSE(done.pending());
  EXPECT_EQ(sim.pending_events(), 0u);

  EventHandle cancelled =
      sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  cancelled.cancel();
  cancelled.retime(TimePoint::origin() + Duration::msec(8));
  EXPECT_FALSE(cancelled.pending());
  EXPECT_EQ(sim.pending_events(), 0u);

  EventHandle inert;
  inert.retime(TimePoint::origin() + Duration::msec(9));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimHandleTest, ContinuationTiesAsItsChainsFirstEvent) {
  Simulator sim;
  std::vector<char> order;
  const TimePoint t = TimePoint::origin() + Duration::msec(10);
  // `a` is scheduled first; its continuation lands on `b`'s timestamp and
  // keeps `a`'s place ahead of `b`. A fresh event there would follow `b`.
  sim.schedule_at(TimePoint::origin() + Duration::msec(1), [&] {
    EXPECT_EQ(sim.scheduled_at(), TimePoint::origin());
    sim.schedule_continuation(t, [&] {
      EXPECT_EQ(sim.scheduled_at(), TimePoint::origin());
      order.push_back('a');
    });
  });
  sim.schedule_at(t, [&] { order.push_back('b'); });
  EXPECT_EQ(sim.scheduled_at(), TimePoint::max());
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(sim.scheduled_at(), TimePoint::max());
}

TEST(SimHandleDeathTest, SecondContinuationFromOneDispatchAborts) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_after(Duration::msec(1), [&] {
          sim.schedule_continuation(sim.now() + Duration::msec(1), [] {});
          sim.schedule_continuation(sim.now() + Duration::msec(2), [] {});
        });
        sim.run();
      },
      "continuation");
}

TEST(SimHandleDeathTest, ContinuationOutsideADispatchAborts) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_continuation(TimePoint::origin(), [] {}),
               "continuation");
}

}  // namespace
}  // namespace canary::sim

// Unit tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <vector>

#include "obs/metric_registry.hpp"
#include "sim/simulator.hpp"

namespace canary::sim {
namespace {

TEST(SimulatorTest, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::msec(30), [&] { order.push_back(3); });
  sim.schedule_after(Duration::msec(10), [&] { order.push_back(1); });
  sim.schedule_after(Duration::msec(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::msec(30));
}

TEST(SimulatorTest, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::msec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_after(Duration::sec(2.5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::origin() + Duration::sec(2.5));
}

TEST(SimulatorTest, CallbacksCanScheduleMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(Duration::msec(1), chain);
  };
  sim.schedule_after(Duration::msec(1), chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::msec(5));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule_after(Duration::msec(10), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
}

TEST(SimulatorTest, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::msec(10), [&] { ++fired; });
  sim.schedule_after(Duration::msec(30), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::msec(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::msec(20));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepExecutesOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::msec(1), [&] { ++fired; });
  sim.schedule_after(Duration::msec(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::msec(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(Duration::msec(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ExecutedEventCountExcludesCancelled) {
  Simulator sim;
  auto handle = sim.schedule_after(Duration::msec(1), [] {});
  sim.schedule_after(Duration::msec(2), [] {});
  handle.cancel();
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_at(TimePoint::from_usec(5000), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.count_usec(), 5000);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.schedule_after(Duration::msec(10), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(TimePoint::from_usec(1), [] {}),
               "cannot schedule an event in the past");
}

// ---- metrics ------------------------------------------------------------

TEST(MetricRegistryTest, CountersAccumulate) {
  obs::MetricRegistry m;
  m.count("x");
  m.count("x", 2.5);
  EXPECT_DOUBLE_EQ(m.counter("x"), 3.5);
  EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
}

TEST(MetricRegistryTest, SamplesRecorded) {
  obs::MetricRegistry m;
  m.sample("lat", 1.0);
  m.sample("lat", 3.0);
  m.sample("dur", Duration::msec(500).to_seconds());
  EXPECT_EQ(m.histogram("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(m.histogram("lat").mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.histogram("dur").mean(), 0.5);
  EXPECT_TRUE(m.histogram("missing").empty());
}

}  // namespace
}  // namespace canary::sim

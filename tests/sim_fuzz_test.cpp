// Randomized invariant harness for the simulation engine and the
// platform above it.
//
// Two layers of fuzzing, both fully deterministic per seed:
//
//  * Engine fuzz: random interleavings of schedule / cancel / retime /
//    continuation operations checked against an oracle — the virtual
//    clock never goes backwards, same-timestamp events fire in tie order
//    (FIFO on scheduling, which a continuation inherits and a retime
//    keeps), cancelled events never fire, and every scheduled event is
//    accounted for (fired xor cancelled). The same operation tape
//    replayed on different heap arities and compaction thresholds must
//    dispatch the identical event sequence.
//
//  * Scenario fuzz: 64 seeds of randomized workloads, strategies, error
//    rates and failure schedules through the full stack, asserting the
//    cross-cutting invariants the figures rely on: every job completes
//    (work conservation), every function completed exactly once, and the
//    critical-path breakdown components partition each recovery window
//    to within one simulated millisecond.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/critical_path.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

// ---------------------------------------------------------------------
// Engine fuzz
// ---------------------------------------------------------------------

struct FiredEvent {
  int id;
  std::int64_t when_usec;
  /// The event's place in the tie order: a fresh schedule takes the next
  /// one, a continuation its parent's, and a retime keeps it.
  std::uint64_t order;
};

struct TapeResult {
  std::vector<FiredEvent> fired;
  std::uint64_t executed = 0;
};

/// Replays a pseudo-random operation tape on one engine, recording the
/// dispatch order and checking the oracle invariants inline. Every
/// fourth event schedules a continuation when it fires.
class Tape {
 public:
  explicit Tape(sim::SimulatorOptions options) : sim_(options) {}

  TapeResult run(std::uint64_t seed, int op_count) {
    std::mt19937_64 rng(seed);
    for (int op = 0; op < op_count; ++op) {
      const auto roll = rng() % 100;
      if (roll < 50 || tracked_.empty()) {
        // Coarse delays make timestamp collisions common, exercising the
        // FIFO tiebreak.
        schedule(static_cast<std::int64_t>(rng() % 50) * 1000);
      } else if (roll < 70) {
        auto& victim = tracked_[rng() % tracked_.size()];
        const bool was_pending = victim.handle.pending();
        victim.handle.cancel();
        if (was_pending && !victim.fired) victim.cancelled = true;
        EXPECT_FALSE(victim.handle.pending());
      } else if (roll < 80) {
        // Retime a random event; one that fired or was cancelled stays
        // as it is. Never onto the current timestamp: an event moved
        // there keeps its place and could tie ahead of one already fired.
        auto& victim = tracked_[rng() % tracked_.size()];
        const std::int64_t when =
            sim_.now().count_usec() +
            static_cast<std::int64_t>(1 + rng() % 49) * 1000;
        const bool was_pending = victim.handle.pending();
        victim.handle.retime(TimePoint::from_usec(when));
        EXPECT_EQ(victim.handle.pending(), was_pending);
        if (was_pending) victim.when_usec = when;
      } else if (roll < 90) {
        // Drain a few events mid-tape so schedule/cancel interleave with
        // dispatch and slot reuse.
        for (int i = 0; i < 5; ++i) {
          if (!sim_.step()) break;
        }
      } else {
        // Double-cancel / cancel-after-fire probes on a random handle.
        auto& victim = tracked_[rng() % tracked_.size()];
        victim.handle.cancel();
        victim.handle.cancel();
        if (victim.fired) {
          EXPECT_FALSE(victim.handle.pending());
        } else {
          victim.cancelled = true;
        }
      }
    }
    sim_.run();
    result_.executed = sim_.executed_events();

    // Work conservation: every event either fired or was cancelled, and
    // the engine's executed count matches the oracle's.
    std::size_t fired_count = 0;
    for (const auto& rec : tracked_) {
      EXPECT_NE(rec.fired, rec.cancelled)
          << "event neither fired nor cancelled (or both)";
      if (rec.fired) ++fired_count;
    }
    EXPECT_EQ(fired_count, result_.fired.size());
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_TRUE(sim_.empty());

    // FIFO tiebreak: among equal timestamps, tie-order places ascend. A
    // fresh place is assigned at scheduling time, and mid-tape drains
    // never reorder scheduling order within a timestamp.
    for (std::size_t i = 1; i < result_.fired.size(); ++i) {
      if (result_.fired[i].when_usec == result_.fired[i - 1].when_usec) {
        EXPECT_LT(result_.fired[i - 1].order, result_.fired[i].order)
            << "FIFO tiebreak violated at t=" << result_.fired[i].when_usec;
      }
    }
    return result_;
  }

 private:
  struct Tracked {
    sim::EventHandle handle;
    std::int64_t when_usec = 0;
    std::uint64_t order = 0;
    bool cancelled = false;
    bool fired = false;
  };

  void schedule(std::int64_t delay_usec) {
    const int id = static_cast<int>(tracked_.size());
    const std::int64_t when = sim_.now().count_usec() + delay_usec;
    tracked_.push_back({});
    tracked_.back().when_usec = when;
    tracked_.back().order = next_order_++;
    tracked_.back().handle =
        sim_.schedule_at(TimePoint::from_usec(when), [this, id] { fire(id); });
  }

  void fire(int id) {
    // Index, not reference: the continuation below grows tracked_.
    const auto index = static_cast<std::size_t>(id);
    EXPECT_FALSE(tracked_[index].cancelled)
        << "cancelled event " << id << " fired";
    EXPECT_FALSE(tracked_[index].fired) << "event " << id << " fired twice";
    tracked_[index].fired = true;
    // Clock monotonicity and exactness.
    EXPECT_EQ(sim_.now().count_usec(), tracked_[index].when_usec);
    EXPECT_GE(sim_.now().count_usec(), last_fired_usec_);
    last_fired_usec_ = sim_.now().count_usec();
    result_.fired.push_back(
        {id, tracked_[index].when_usec, tracked_[index].order});
    if (id % 4 != 0) return;
    // A continuation 1-4 ms on takes over this event's place.
    const int next = static_cast<int>(tracked_.size());
    const std::int64_t when =
        sim_.now().count_usec() + (1 + id % 3 + id % 2) * 1000;
    tracked_.push_back({});
    tracked_.back().when_usec = when;
    tracked_.back().order = tracked_[index].order;
    tracked_.back().handle = sim_.schedule_continuation(
        TimePoint::from_usec(when), [this, next] { fire(next); });
  }

  sim::Simulator sim_;
  std::vector<Tracked> tracked_;
  std::uint64_t next_order_ = 0;
  std::int64_t last_fired_usec_ = -1;
  TapeResult result_;
};

TapeResult run_tape(std::uint64_t seed, sim::SimulatorOptions options,
                    int op_count) {
  return Tape(options).run(seed, op_count);
}

TEST(SimFuzzTest, EngineInvariantsHoldAcross64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_tape(seed, sim::SimulatorOptions{}, 2000);
  }
}

TEST(SimFuzzTest, DispatchOrderIsIdenticalAcrossArities) {
  // (time, seq) is a total order, so the executed sequence must not
  // depend on heap shape or compaction cadence.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::SimulatorOptions binary;
    binary.heap_arity = 2;
    binary.compact_min = 4;
    sim::SimulatorOptions quad;  // defaults: arity 4, compact_min 64
    sim::SimulatorOptions wide;
    wide.heap_arity = 8;
    wide.compact_min = 1;
    const TapeResult a = run_tape(seed, binary, 300);
    const TapeResult b = run_tape(seed, quad, 300);
    const TapeResult c = run_tape(seed, wide, 300);
    ASSERT_EQ(a.fired.size(), b.fired.size());
    ASSERT_EQ(a.fired.size(), c.fired.size());
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.executed, c.executed);
    for (std::size_t i = 0; i < a.fired.size(); ++i) {
      EXPECT_EQ(a.fired[i].id, b.fired[i].id) << "divergence at index " << i;
      EXPECT_EQ(a.fired[i].id, c.fired[i].id) << "divergence at index " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Scenario fuzz
// ---------------------------------------------------------------------

harness::ScenarioConfig random_scenario(std::mt19937_64& rng) {
  harness::ScenarioConfig config;
  switch (rng() % 4) {
    case 0: config.strategy = recovery::StrategyConfig::retry(); break;
    case 1: config.strategy = recovery::StrategyConfig::canary_full(); break;
    case 2:
      config.strategy = recovery::StrategyConfig::canary_checkpoint_only();
      break;
    default:
      config.strategy = recovery::StrategyConfig::canary_replication_only();
      break;
  }
  config.error_rate = static_cast<double>(rng() % 30) / 100.0;
  config.cluster_nodes = 4u + rng() % 13;  // 4..16
  config.seed = rng();
  if (rng() % 3 == 0) {
    // A node failure somewhere in the first simulated minute.
    config.node_failure_offsets.push_back(
        Duration::sec(1.0 + static_cast<double>(rng() % 50)));
  }
  return config;
}

std::vector<faas::JobSpec> random_jobs(std::mt19937_64& rng) {
  static constexpr workloads::WorkloadKind kKinds[] = {
      workloads::WorkloadKind::kDlTraining, workloads::WorkloadKind::kWebService,
      workloads::WorkloadKind::kSparkMining, workloads::WorkloadKind::kCompression,
      workloads::WorkloadKind::kGraphBfs,
  };
  std::vector<faas::JobSpec> jobs;
  const std::size_t job_count = 1 + rng() % 2;
  for (std::size_t j = 0; j < job_count; ++j) {
    switch (rng() % 3) {
      case 0:
        jobs.push_back(workloads::make_job(kKinds[rng() % 5], 2 + rng() % 30));
        break;
      case 1:
        jobs.push_back(workloads::make_mapreduce_job(2 + rng() % 4,
                                                     1 + rng() % 2));
        break;
      default:
        jobs.push_back(workloads::make_mixed_batch(3 + rng() % 8));
        break;
    }
  }
  return jobs;
}

TEST(SimFuzzTest, ScenarioInvariantsHoldAcross64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull);
    const harness::ScenarioConfig config = random_scenario(rng);
    const std::vector<faas::JobSpec> jobs = random_jobs(rng);
    std::size_t total_functions = 0;
    for (const auto& job : jobs) total_functions += job.functions.size();

    const harness::RunResult result = harness::ScenarioRunner::run(config, jobs);

    // Work conservation: the run drains — every job completes, every
    // function completed (counting discarded request-replica losers).
    EXPECT_TRUE(result.completed) << "jobs left incomplete";
    const double completed = result.metrics.counter("functions_completed");
    EXPECT_GE(completed, static_cast<double>(total_functions));
    EXPECT_GE(result.makespan_s, 0.0);
    EXPECT_GE(result.total_recovery_s, 0.0);
    EXPECT_GE(result.lost_work_s, 0.0);

    // Failures either recovered or were absorbed by completion: recovery
    // accounting never goes negative and the simulated clock advanced.
    EXPECT_GT(result.simulated_events, 0u);

    // Critical-path partition: components of every resolved recovery
    // window sum to the window length within 1 sim-ms.
    ASSERT_NE(result.events, nullptr);
    const obs::CriticalPathAnalyzer analyzer(*result.events);
    for (const auto& window : analyzer.recovery_windows()) {
      const double window_s = window.window().to_seconds();
      const double sum_s = window.components.total();
      EXPECT_NEAR(sum_s, window_s, 1e-3)
          << "recovery window of " << window.family
          << " not partitioned: components " << sum_s << " vs window "
          << window_s;
    }

    // The aggregate breakdown inherits the same partition property.
    const double agg_window = result.breakdown.recovery_window_s;
    const double agg_sum = result.breakdown.recovery_components.total();
    EXPECT_NEAR(agg_sum, agg_window,
                1e-3 * std::max<double>(1.0, static_cast<double>(
                                                 result.breakdown.recovery_count)));
  }
}

}  // namespace
}  // namespace canary

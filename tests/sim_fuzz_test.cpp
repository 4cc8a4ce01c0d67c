// Randomized invariant harness for the simulation engine and the
// platform above it.
//
// Two layers of fuzzing, both fully deterministic per seed:
//
//  * Engine fuzz: random interleavings of schedule / cancel /
//    schedule-from-callback operations checked against an oracle — the
//    virtual clock never goes backwards, same-timestamp events fire in
//    scheduling order (FIFO tiebreak), cancelled events never fire, and
//    every scheduled event is accounted for (fired xor cancelled). The
//    same operation tape replayed on different heap arities and
//    compaction thresholds must dispatch the identical event sequence.
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
};

struct TapeResult {
  std::vector<FiredEvent> fired;
  std::uint64_t executed = 0;
};

/// Replays a pseudo-random operation tape derived from `seed` on an
/// engine with the given options, recording the dispatch order and
/// checking the oracle invariants inline.
TapeResult run_tape(std::uint64_t seed, sim::SimulatorOptions options,
                    int op_count) {
  std::mt19937_64 rng(seed);
  sim::Simulator sim(options);
  TapeResult result;

  struct Tracked {
    sim::EventHandle handle;
    std::int64_t when_usec = 0;
    bool cancelled = false;
    bool fired = false;
  };
  // Deque-like stable storage: callbacks capture indices, not pointers.
  static thread_local std::vector<Tracked>* tracked_ptr = nullptr;
  std::vector<Tracked> tracked;
  tracked.reserve(static_cast<std::size_t>(op_count) * 2);
  tracked_ptr = &tracked;

  std::int64_t last_fired_usec = -1;
  int next_id = 0;

  auto schedule_one = [&](std::int64_t delay_usec) {
    const int id = next_id++;
    tracked.push_back({});
    const std::int64_t when = sim.now().count_usec() + delay_usec;
    tracked[static_cast<std::size_t>(id)].when_usec = when;
    tracked[static_cast<std::size_t>(id)].handle = sim.schedule_after(
        Duration::usec(delay_usec), [&sim, &result, &last_fired_usec, id] {
          auto& rec = (*tracked_ptr)[static_cast<std::size_t>(id)];
          EXPECT_FALSE(rec.cancelled) << "cancelled event " << id << " fired";
          EXPECT_FALSE(rec.fired) << "event " << id << " fired twice";
          rec.fired = true;
          // Clock monotonicity and exactness.
          EXPECT_EQ(sim.now().count_usec(), rec.when_usec);
          EXPECT_GE(sim.now().count_usec(), last_fired_usec);
          last_fired_usec = sim.now().count_usec();
          result.fired.push_back({id, rec.when_usec});
        });
  };

  for (int op = 0; op < op_count; ++op) {
    const auto roll = rng() % 100;
    if (roll < 55 || tracked.empty()) {
      // Coarse delays make timestamp collisions common, exercising the
      // FIFO tiebreak.
      schedule_one(static_cast<std::int64_t>(rng() % 50) * 1000);
    } else if (roll < 80) {
      auto& victim = tracked[rng() % tracked.size()];
      const bool was_pending = victim.handle.pending();
      victim.handle.cancel();
      if (was_pending && !victim.fired) victim.cancelled = true;
      EXPECT_FALSE(victim.handle.pending());
    } else if (roll < 90) {
      // Drain a few events mid-tape so schedule/cancel interleave with
      // dispatch and slot reuse.
      for (int i = 0; i < 5; ++i) {
        if (!sim.step()) break;
      }
    } else {
      // Double-cancel / cancel-after-fire probes on a random handle.
      auto& victim = tracked[rng() % tracked.size()];
      victim.handle.cancel();
      victim.handle.cancel();
      if (victim.fired) {
        EXPECT_FALSE(victim.handle.pending());
      } else {
        victim.cancelled = true;
      }
    }
  }
  sim.run();
  result.executed = sim.executed_events();

  // Work conservation: every event either fired or was cancelled, and
  // the engine's executed count matches the oracle's.
  std::size_t fired_count = 0;
  for (const auto& rec : tracked) {
    EXPECT_NE(rec.fired, rec.cancelled)
        << "event neither fired nor cancelled (or both)";
    if (rec.fired) ++fired_count;
  }
  EXPECT_EQ(fired_count, result.fired.size());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());

  // FIFO tiebreak: among equal timestamps, ids must ascend — an id is
  // assigned at scheduling time, and mid-tape drains never reorder
  // scheduling order within a timestamp.
  for (std::size_t i = 1; i < result.fired.size(); ++i) {
    if (result.fired[i].when_usec == result.fired[i - 1].when_usec) {
      EXPECT_LT(result.fired[i - 1].id, result.fired[i].id)
          << "FIFO tiebreak violated at t=" << result.fired[i].when_usec;
    }
  }
  tracked_ptr = nullptr;
  return result;
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

// Microbenchmarks of the substrate hot paths: event queue throughput,
// KV store operations, and end-to-end simulated-platform throughput.
#include <benchmark/benchmark.h>

#include "micro_report.hpp"

#include "cluster/network.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "harness/scenario.hpp"
#include "kvstore/kvstore.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace canary;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sim.schedule_after(Duration::usec(static_cast<std::int64_t>(i % 1000)),
                         [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(sim.schedule_after(Duration::msec(1), [] {}));
    }
    for (auto& h : handles) h.cancel();
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(10000 * state.iterations());
}
BENCHMARK(BM_EventCancellation);

void BM_EventTimerChurn(benchmark::State& state) {
  // The platform's kill-timer pattern: every work event cancels a
  // companion timeout scheduled further out, so the heap carries a
  // moving population of tombstones and the lazy-deletion compactor
  // runs continuously.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> timeouts(n);
    std::uint64_t resolved = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      timeouts[i] = sim.schedule_after(
          Duration::usec(2000 + static_cast<std::int64_t>(i % 1000)), [] {});
      sim.schedule_after(Duration::usec(static_cast<std::int64_t>(i % 1000)),
                         [&resolved, &timeouts, i] {
                           timeouts[i].cancel();
                           ++resolved;
                         });
    }
    sim.run();
    benchmark::DoNotOptimize(resolved);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          state.iterations());
}
BENCHMARK(BM_EventTimerChurn)->Arg(10000)->Arg(100000);

void BM_EventQueueHeapArity(benchmark::State& state) {
  // Same schedule/run workload across heap arities: dispatch order is
  // identical by construction (total order on (time, seq)), so this
  // isolates the cache behaviour of the d-ary sift loops.
  sim::SimulatorOptions options;
  options.heap_arity = static_cast<unsigned>(state.range(0));
  constexpr std::uint64_t kEvents = 100000;
  for (auto _ : state) {
    sim::Simulator sim(options);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      sim.schedule_after(
          Duration::usec(static_cast<std::int64_t>((i * 2654435761u) % 10000)),
          [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                          state.iterations());
}
BENCHMARK(BM_EventQueueHeapArity)->Arg(2)->Arg(4)->Arg(8);

void BM_KvPut(benchmark::State& state) {
  std::vector<NodeId> nodes;
  for (std::uint64_t i = 1; i <= 4; ++i) nodes.push_back(NodeId{i});
  kv::KvStore store(kv::KvConfig{}, nodes);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.put("key" + std::to_string(key++ % 4096), "payload"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvPut);

void BM_KvGet(benchmark::State& state) {
  std::vector<NodeId> nodes;
  for (std::uint64_t i = 1; i <= 4; ++i) nodes.push_back(NodeId{i});
  kv::KvStore store(kv::KvConfig{}, nodes);
  for (int i = 0; i < 4096; ++i) {
    (void)store.put("key" + std::to_string(i), "payload");
  }
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get("key" + std::to_string(key++ % 4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvGet);

void BM_PlatformEndToEnd(benchmark::State& state) {
  // Full simulated run: N web-service functions under Canary at 20% error.
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, count)};
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.2;
  config.cluster_nodes = 16;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = harness::ScenarioRunner::run(config, jobs);
    events += result.simulated_events;
    benchmark::DoNotOptimize(result.makespan_s);
  }
  state.counters["sim_events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlatformEndToEnd)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return canary::bench::run_micro_benchmarks(argc, argv, "micro_substrate");
}

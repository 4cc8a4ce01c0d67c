// Million-invocation scale stress for the simulation substrate.
//
// Unlike the figure benches (which reproduce the paper's plots) this
// binary answers an engineering question: how fast is the event engine
// and the platform above it, and does the hot path allocate? It runs
// five phases and writes BENCH_scale.json (canary.bench/v2), gated
// against bench/BENCH_scale.baseline.json (a >20% regression of a gated
// value fails the smoke run):
//
//   engine_steady   schedule/dispatch churn on a bare sim::Simulator
//   engine_cancel   timer churn: every work event cancels a timeout
//                   event, exercising lazy deletion + compaction
//   platform_scale  >= 1M invocations across 256 nodes through the full
//                   FaaS platform (quick mode: 32k across 64 nodes)
//   canary_scale    the paper's strategy (StrategyConfig::canary_full())
//                   on the same web-service jobs: checkpoint commits,
//                   warm replica pools and recovery; 65k invocations
//                   across 256 nodes (quick mode: 8k across 64 nodes)
//   canary_scale_events  quick mode's canary_scale (8k invocations, 64
//                   nodes) with the causal event log on, in both modes:
//                   ~870k logged events stay under the log's 1M-event
//                   cap, and a dropped event fails the report. After the
//                   run the phase writes the log's chrome trace to a
//                   counting null sink (bytes, seconds, allocations)
//
// The engine phases gate events/sec. platform_scale gates
// invocations/sec: the platform dispatches one engine event per
// execution segment, not per state, so the events it takes to simulate an
// invocation are not fixed, and a change that removes events must not
// read as a slowdown. canary_scale and canary_scale_events gate
// allocations/event instead: the count is exact for a given build, so
// that gate does not depend on how busy the host is. platform_scale also
// gates, exactly, the allocations that building its job list takes per
// invocation: every function of a job shares its template's state table,
// so what is left is the function vector and the names too long for the
// string's inline buffer. canary_scale_events also gates, exactly, the
// allocations its trace export takes: one block, the writer's chunk,
// whatever the trace's size. Its export time and MB/s are reported, not
// gated.
//
// A second sweep reruns the platform phase sharded (the same topology
// split into 8 partitions, each an independent scenario) at 1, 2 and 4
// worker threads and writes its own report (BENCH_shard.json, gated on
// invocations/sec against bench/BENCH_shard.baseline.json). The merged
// event count is invariant in the worker count by construction, so the
// phases measure parallelism, not different workloads.
//
// Allocation counts come from interposing global operator new in this
// binary, so allocations/event is exact, not sampled. Peak RSS comes
// from getrusage(RUSAGE_SELF).
//
// Usage: scale_stress [--quick]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "support.hpp"

#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

// ---------------------------------------------------------------------
// Global operator new/delete interposition: exact allocation counting.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace canary::bench {
namespace {

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ull;
}

struct PhaseResult {
  /// The gated value of a phase.
  enum class Gate { kEventsPerSec, kInvocationsPerSec, kAllocationsPerEvent };

  std::string name;
  std::uint64_t events = 0;       // events dispatched or resolved
  std::uint64_t invocations = 0;  // simulated invocations (platform phases)
  double wall_s = 0.0;
  std::uint64_t allocations = 0;  // operator new calls during the phase
  std::uint64_t events_dropped = 0;  // by the causal log's cap
  /// operator new calls building the phase's job list (platform phases).
  std::uint64_t batch_allocations = 0;
  /// The chrome trace of the phase's event log (phases that record one):
  /// its size, export time and the operator new calls the export took.
  std::uint64_t trace_bytes = 0;
  double trace_export_s = 0.0;
  std::uint64_t trace_export_allocations = 0;
  Gate gate = Gate::kEventsPerSec;
  /// Also gate batch_allocations per invocation.
  bool gate_batch_allocations = false;
  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  double invocations_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(invocations) / wall_s : 0.0;
  }
  double allocations_per_event() const {
    return events > 0
               ? static_cast<double>(allocations) / static_cast<double>(events)
               : 0.0;
  }
  double batch_allocations_per_invocation() const {
    return invocations > 0 ? static_cast<double>(batch_allocations) /
                                 static_cast<double>(invocations)
                           : 0.0;
  }
};

/// Counts the bytes written to it and keeps none.
class CountingNullBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// Deterministic xorshift so phase workloads don't depend on libstdc++
/// distribution internals (and never allocate).
struct XorShift {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Pure schedule/dispatch churn: batches of short timers drained to
/// empty, repeated until `target` events have fired. One untimed batch
/// first warms the slab, heap, and callback storage so the measured
/// steady state reflects reuse, not growth.
PhaseResult engine_steady(std::uint64_t target) {
  constexpr std::uint64_t kBatch = 4096;
  sim::Simulator sim;
  XorShift rng;
  std::uint64_t fired = 0;

  auto run_batch = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      sim.schedule_after(Duration::usec(static_cast<std::int64_t>(
                             rng.next() % 1000)),
                         [&fired] { ++fired; });
    }
    sim.run();
  };

  run_batch(kBatch);  // warm-up, not measured
  fired = 0;

  const std::uint64_t alloc_start = allocations_now();
  const auto start = std::chrono::steady_clock::now();
  while (fired < target) {
    run_batch(std::min<std::uint64_t>(kBatch, target - fired));
  }
  PhaseResult result;
  result.name = "engine_steady";
  result.events = fired;
  result.wall_s = wall_seconds_since(start);
  result.allocations = allocations_now() - alloc_start;
  return result;
}

/// Timer churn modelled on the platform's execution kill timers: every
/// work event cancels a companion timeout that would otherwise fire
/// later, leaving tombstones for the lazy-deletion compactor. `target`
/// counts resolved pairs (one dispatch + one cancellation each).
PhaseResult engine_cancel(std::uint64_t target) {
  constexpr std::uint64_t kBatch = 4096;
  sim::Simulator sim;
  XorShift rng;
  std::uint64_t resolved = 0;
  std::vector<sim::EventHandle> timeouts(kBatch);

  auto run_batch = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      timeouts[i] = sim.schedule_after(
          Duration::usec(2000 + static_cast<std::int64_t>(rng.next() % 1000)),
          [] {});
      sim.schedule_after(
          Duration::usec(static_cast<std::int64_t>(rng.next() % 1000)),
          [&resolved, &timeouts, i] {
            timeouts[i].cancel();
            ++resolved;
          });
    }
    sim.run();
  };

  run_batch(kBatch);  // warm-up, not measured
  resolved = 0;

  const std::uint64_t alloc_start = allocations_now();
  const auto start = std::chrono::steady_clock::now();
  while (resolved < target) {
    run_batch(std::min<std::uint64_t>(kBatch, target - resolved));
  }
  PhaseResult result;
  result.name = "engine_cancel";
  // Each resolved pair is two scheduled events: one fired, one cancelled.
  result.events = resolved * 2;
  result.wall_s = wall_seconds_since(start);
  result.allocations = allocations_now() - alloc_start;
  return result;
}

std::vector<faas::JobSpec> web_service_batch(std::size_t jobs,
                                             std::size_t functions_per_job) {
  std::vector<faas::JobSpec> batch;
  batch.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    batch.push_back(workloads::make_job(workloads::WorkloadKind::kWebService,
                                        functions_per_job,
                                        "scale_" + std::to_string(j)));
  }
  return batch;
}

/// The full stack at scale: `jobs` x `functions_per_job` web-service
/// invocations over `nodes` nodes under `strategy` with a small hazard
/// error rate, span recording off and the causal event log on only when
/// `record_events` (by default the phase measures the platform and the
/// strategy, not the recorders). Gates simulated invocations/sec. A phase
/// that records the log then exports it as a chrome trace, untimed by the
/// phase's own wall clock and allocation count.
PhaseResult platform_scale(const std::string& name,
                           recovery::StrategyConfig strategy,
                           std::size_t nodes, std::size_t jobs,
                           std::size_t functions_per_job,
                           bool record_events = false) {
  harness::ScenarioConfig config =
      scenario(strategy, /*error_rate=*/0.02, nodes);
  config.record_spans = false;
  config.record_events = record_events;

  const std::uint64_t batch_start = allocations_now();
  const std::vector<faas::JobSpec> batch =
      web_service_batch(jobs, functions_per_job);
  const std::uint64_t batch_allocations = allocations_now() - batch_start;

  const std::uint64_t alloc_start = allocations_now();
  const auto start = std::chrono::steady_clock::now();
  const harness::RunResult run = harness::ScenarioRunner::run(config, batch);
  PhaseResult result;
  result.name = name;
  result.events = run.simulated_events;
  result.invocations = static_cast<std::uint64_t>(jobs) * functions_per_job;
  result.gate = PhaseResult::Gate::kInvocationsPerSec;
  result.wall_s = wall_seconds_since(start);
  result.allocations = allocations_now() - alloc_start;
  result.events_dropped = run.events_dropped;
  result.batch_allocations = batch_allocations;
  if (!run.completed) {
    std::cerr << name << ": run did not complete\n";
    std::exit(1);
  }
  if (record_events) {
    CountingNullBuf sink;
    std::ostream out(&sink);
    const std::uint64_t export_start = allocations_now();
    const auto export_clock = std::chrono::steady_clock::now();
    obs::write_chrome_trace(out, run.spans.get(), run.events.get());
    result.trace_export_s = wall_seconds_since(export_clock);
    result.trace_export_allocations = allocations_now() - export_start;
    result.trace_bytes = sink.bytes();
  }
  return result;
}

/// The platform phase sharded: the same topology split into 8
/// partitions, run by `workers` threads. The merged simulated event
/// total is invariant in `workers` (the determinism suite proves it
/// byte-for-byte), so the per-worker-count phases compare like against
/// like.
PhaseResult platform_shard(std::size_t nodes, std::size_t jobs,
                           std::size_t functions_per_job, unsigned workers) {
  harness::ScenarioConfig config =
      scenario(recovery::StrategyConfig::retry(), /*error_rate=*/0.02, nodes);
  config.record_spans = false;
  config.record_events = false;
  config.sharding.partitions = 8;
  config.sharding.workers = workers;

  const std::vector<faas::JobSpec> batch =
      web_service_batch(jobs, functions_per_job);

  const std::uint64_t alloc_start = allocations_now();
  const auto start = std::chrono::steady_clock::now();
  const harness::RunResult run = harness::ScenarioRunner::run(config, batch);
  PhaseResult result;
  result.name = "platform_shard_w" + std::to_string(workers);
  result.events = run.simulated_events;
  result.invocations = static_cast<std::uint64_t>(jobs) * functions_per_job;
  result.gate = PhaseResult::Gate::kInvocationsPerSec;
  result.wall_s = wall_seconds_since(start);
  result.allocations = allocations_now() - alloc_start;
  if (!run.completed) {
    std::cerr << result.name << ": run did not complete\n";
    std::exit(1);
  }
  std::cout << "  " << result.name << ": " << run.shards.size()
            << " partitions;";
  for (std::size_t p = 0; p < run.shards.size(); ++p) {
    std::cout << (p == 0 ? " per-shard events " : " / ")
              << run.shards[p]->simulated_events;
  }
  std::cout << "\n";
  return result;
}

/// Writes one phase set as a bench report; every phase's gated value is
/// gated. A phase that dispatched nothing or took no time is a broken
/// measurement and fails the report. Returns the exit status.
int write_report(const std::string& name, bool quick, std::size_t nodes,
                 std::uint64_t invocations,
                 const std::vector<PhaseResult>& phases) {
  std::vector<std::string> violations;
  std::vector<Gated> gated;
  for (const PhaseResult& phase : phases) {
    if (phase.events == 0 || phase.wall_s <= 0.0) {
      violations.push_back(phase.name + ": no events or no wall time");
    }
    if (phase.events_dropped > 0) {
      violations.push_back(phase.name + ": the event log dropped " +
                           std::to_string(phase.events_dropped) + " events");
    }
    switch (phase.gate) {
      case PhaseResult::Gate::kEventsPerSec:
        gated.push_back(
            {phase.name + ".events_per_sec", phase.events_per_sec(), false});
        break;
      case PhaseResult::Gate::kInvocationsPerSec:
        gated.push_back({phase.name + ".invocations_per_sec",
                         phase.invocations_per_sec(), false});
        break;
      case PhaseResult::Gate::kAllocationsPerEvent:
        gated.push_back({phase.name + ".allocations_per_event",
                         phase.allocations_per_event(), true});
        break;
    }
    if (phase.gate_batch_allocations) {
      gated.push_back({phase.name + ".batch_allocations_per_invocation",
                       phase.batch_allocations_per_invocation(), true});
    }
    if (phase.trace_bytes > 0) {
      gated.push_back({phase.name + ".trace_export_allocations",
                       static_cast<double>(phase.trace_export_allocations),
                       true});
    }
  }
  const std::uint64_t rss = peak_rss_bytes();
  if (rss == 0) violations.push_back("peak RSS unavailable");
  const bool written = write_bench_report(
      name, quick, violations, gated,
      [&](obs::JsonWriter& json) {
        json.field("nodes", static_cast<std::uint64_t>(nodes));
        json.field("invocations", invocations);
      },
      [&](obs::JsonWriter& json) {
        json.key("phases").begin_array();
        for (const PhaseResult& phase : phases) {
          json.begin_object();
          json.field("name", phase.name);
          json.field("events", phase.events);
          json.field("invocations", phase.invocations);
          json.field("wall_s", phase.wall_s);
          json.field("events_per_sec", phase.events_per_sec());
          json.field("invocations_per_sec", phase.invocations_per_sec());
          json.field("allocations", phase.allocations);
          json.field("allocations_per_event", phase.allocations_per_event());
          json.field("batch_allocations", phase.batch_allocations);
          json.field("trace_bytes", phase.trace_bytes);
          json.field("trace_export_s", phase.trace_export_s);
          json.field("trace_export_allocations",
                     phase.trace_export_allocations);
          json.end_object();
        }
        json.end_array();
        json.field("peak_rss_bytes", rss);
      });
  if (!written) return 1;
  return violations.empty() ? 0 : fail("scale_stress " + name, violations);
}

int run(int argc, char** argv) {
  bool quick = quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: scale_stress [--quick]\n";
      return 2;
    }
  }

  // Full mode: >= 1M invocations over 256 nodes, 4M-event engine phases.
  // Quick mode: 32k invocations over 64 nodes, 256k-event engine phases —
  // large enough that events/sec is stable, small enough for CI.
  const std::uint64_t engine_events = quick ? 262'144 : 4'194'304;
  const std::uint64_t cancel_pairs = quick ? 131'072 : 2'097'152;
  const std::size_t nodes = quick ? 64 : 256;
  const std::size_t jobs = quick ? 8 : 245;
  const std::size_t functions_per_job = 4096;  // 245 * 4096 = 1,003,520
  // canary_full dispatches one event per state (~55 per invocation; its
  // checkpoint hooks see every commit, where retry's segments need ~6)
  // and runs many times slower per invocation: 2 jobs in quick mode, and
  // in full mode as many as keep the phase near 10 s.
  const std::size_t canary_jobs = quick ? 2 : 16;

  std::cout << "=== scale_stress (" << (quick ? "quick" : "full")
            << "): engine + platform hot-path throughput ===\n";

  std::vector<PhaseResult> phases;
  phases.push_back(engine_steady(engine_events));
  phases.push_back(engine_cancel(cancel_pairs));
  phases.push_back(platform_scale("platform_scale",
                                  recovery::StrategyConfig::retry(), nodes,
                                  jobs, functions_per_job));
  phases.back().gate_batch_allocations = true;
  phases.push_back(platform_scale("canary_scale",
                                  recovery::StrategyConfig::canary_full(),
                                  nodes, canary_jobs, functions_per_job));
  phases.back().gate = PhaseResult::Gate::kAllocationsPerEvent;
  phases.push_back(platform_scale("canary_scale_events",
                                  recovery::StrategyConfig::canary_full(),
                                  /*nodes=*/64, /*jobs=*/2, functions_per_job,
                                  /*record_events=*/true));
  phases.back().gate = PhaseResult::Gate::kAllocationsPerEvent;
  const std::uint64_t invocations = phases[2].invocations;
  const std::uint64_t canary_invocations = phases[3].invocations;

  std::cout << "\nshard sweep (8 partitions):\n";
  std::vector<PhaseResult> shard_phases;
  for (const unsigned workers : {1u, 2u, 4u}) {
    shard_phases.push_back(
        platform_shard(nodes, jobs, functions_per_job, workers));
  }

  TextTable table({"phase", "events", "wall [s]", "events/sec",
                   "invocations/sec", "allocs", "allocs/event"});
  for (const std::vector<PhaseResult>* set : {&phases, &shard_phases}) {
    for (const PhaseResult& phase : *set) {
      table.add_row({phase.name, std::to_string(phase.events),
                     TextTable::num(phase.wall_s, 3),
                     TextTable::num(phase.events_per_sec(), 0),
                     phase.invocations > 0
                         ? TextTable::num(phase.invocations_per_sec(), 0)
                         : "-",
                     std::to_string(phase.allocations),
                     TextTable::num(phase.allocations_per_event(), 4)});
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nplatform invocations: " << invocations << " across " << nodes
            << " nodes (canary_scale: " << canary_invocations
            << ")\njob list: " << phases[2].batch_allocations
            << " allocations ("
            << TextTable::num(phases[2].batch_allocations_per_invocation(), 4)
            << " per invocation)\n";
  const PhaseResult& traced = phases[4];
  std::cout << "trace export (" << traced.name << "): "
            << TextTable::num(static_cast<double>(traced.trace_bytes) / 1e6, 1)
            << " MB in " << TextTable::num(traced.trace_export_s, 3) << " s ("
            << TextTable::num(static_cast<double>(traced.trace_bytes) / 1e6 /
                                  traced.trace_export_s,
                              0)
            << " MB/s), " << traced.trace_export_allocations
            << " allocations\npeak rss: " << peak_rss_bytes() / (1024 * 1024)
            << " MiB\n";

  const int scale_status =
      write_report("scale", quick, nodes, invocations, phases);
  const int shard_status =
      write_report("shard", quick, nodes, invocations, shard_phases);
  return scale_status != 0 ? scale_status : shard_status;
}

}  // namespace
}  // namespace canary::bench

int main(int argc, char** argv) { return canary::bench::run(argc, argv); }

// Segment dispatch: without a per-state consumer (Canary's hooks or the
// causal event log) the platform dispatches one engine event per
// execution segment instead of one per state. Turning the event log on
// forces per-state dispatch, so every scenario run with events on and
// off must agree on everything the run measures: the recorder stays
// passive and the skipped commits stay invisible.
//
//  * The differential runs chaos scenarios of every non-Canary strategy
//    (Canary's hooks keep it per-state either way) over every overlay,
//    both ways, and compares the RunResult scalars, every registry
//    counter and gauge, and every histogram's count and sum.
//  * The boundary tests land an interruption scheduled mid-attempt on
//    exactly the microsecond of a skipped commit, once scheduled after
//    the state started (per-state dispatch commits first) and once
//    before (the interruption goes first), and compare the progress the
//    interrupted attempt reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "harness/chaos.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_registry.hpp"
#include "sim/simulator.hpp"

namespace canary {
namespace {

using recovery::StrategyKind;

// ---------------------------------------------------------------------
// Differential: events on vs off
// ---------------------------------------------------------------------

/// Everything a run measures that does not come from the event log, one
/// line per value. Doubles print as hex floats, so equal text means
/// bit-equal values.
std::string measured(const harness::RunResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "completed " << r.completed << "\nmakespan " << r.makespan_s
      << "\nrecovery " << r.total_recovery_s << "\nmean_recovery "
      << r.mean_recovery_s << "\nlost_work " << r.lost_work_s
      << "\nfailures " << r.failures << "\ncost " << r.cost_usd
      << "\ncost.function " << r.cost.function_usd << "\ncost.replica "
      << r.cost.replica_usd << "\ncost.rr " << r.cost.rr_usd
      << "\ncost.standby " << r.cost.standby_usd << "\nsla_violations "
      << r.sla_violations << "\nsla_jobs " << r.sla_jobs << "\nusage "
      << r.usage_records << " " << r.usage_unbalanced << " "
      << r.usage_gb_seconds << "\nundetected " << r.undetected_failures
      << "\ninjected " << r.injected.planned_kills << " "
      << r.injected.node_kills << " " << r.injected.skipped_node_kills << " "
      << r.injected.gray_windows << " " << r.injected.heartbeats_delayed
      << " " << r.injected.store_entries_dropped << " "
      << r.injected.store_entries_corrupted << " "
      << r.injected.partitions_started << " " << r.injected.partitions_healed
      << " " << r.injected.zone_outages << "\npartitions_active_end "
      << r.partitions_active_end << "\nkv_rejects " << r.kv_stale_epoch_rejects
      << " " << r.kv_quorum_blocked_puts << "\nfenced "
      << r.confirmed_workers_fenced << "\n";
  for (const auto& [name, value] : r.metrics.counters()) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : r.metrics.gauges()) {
    out << "gauge " << name << " " << value << "\n";
  }
  for (const auto& [name, histogram] : r.metrics.histograms()) {
    out << "histogram " << name << " " << histogram.count() << " "
        << histogram.sum() << "\n";
  }
  return out.str();
}

/// Runs (spec, seed) with the event log on and off; returns the first
/// line that differs, or an empty string.
std::string differential(const harness::ChaosSpec& spec, std::uint64_t seed) {
  harness::ChaosScenario scenario = harness::make_chaos_scenario(spec, seed);
  scenario.config.record_spans = false;
  scenario.config.attribution = false;
  scenario.config.record_events = true;
  const std::string on = measured(
      harness::ScenarioRunner::run(scenario.config, scenario.jobs));
  scenario.config.record_events = false;
  const std::string off = measured(
      harness::ScenarioRunner::run(scenario.config, scenario.jobs));
  if (on == off) return {};
  std::istringstream a(on);
  std::istringstream b(off);
  std::string line_on;
  std::string line_off;
  while (std::getline(a, line_on)) {
    if (!std::getline(b, line_off)) line_off = "<missing>";
    if (line_on != line_off) return "on: " + line_on + " / off: " + line_off;
  }
  return "off has extra lines";
}

struct Shape {
  const char* name;
  harness::ChaosSpec spec;
};

TEST(SegmentDifferentialTest, RecorderIsPassiveAcrossStrategiesAndOverlays) {
  constexpr StrategyKind kStrategies[] = {
      StrategyKind::kRetry, StrategyKind::kRequestReplication,
      StrategyKind::kActiveStandby, StrategyKind::kHedge, StrategyKind::kIdeal};
  const Shape shapes[] = {
      {"base", {}},
      {"traffic", {.traffic = true}},
      {"stragglers", {.stragglers = true}},
      {"partition", {.partition = true}},
      {"scaled", {.scaled = true}},
      {"x2", {.partitions = 2}},
  };
  constexpr std::uint64_t kSeeds = 20;
  for (const StrategyKind strategy : kStrategies) {
    for (const Shape& shape : shapes) {
      harness::ChaosSpec spec = shape.spec;
      spec.strategy = strategy;
      // The scaled shape runs 8x the jobs; fewer seeds keep it cheap.
      const std::uint64_t seeds = spec.scaled ? kSeeds / 4 : kSeeds;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const std::string diff = differential(spec, seed);
        EXPECT_TRUE(diff.empty())
            << shape.name << "/" << recovery::to_string_view(strategy)
            << " seed " << seed << ": " << diff;
      }
    }
  }
}

TEST(SegmentDifferentialTest, LockstepReplicasKeepTheirWinner) {
  // Two request replicas finish in the same microsecond here, and a
  // marker split cuts one of them into two segments: the winner holds
  // only while the continuation keeps its chain's sequence number.
  const harness::ChaosSpec spec{.strategy = StrategyKind::kRequestReplication,
                                .stragglers = true};
  EXPECT_EQ(differential(spec, 3001), "");
}

// ---------------------------------------------------------------------
// Boundary: an interruption on exactly a skipped commit
// ---------------------------------------------------------------------

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

/// What the interrupted invocation shows right after the interruption,
/// and when it completes.
struct Progress {
  faas::Phase phase = faas::Phase::kPending;
  std::size_t next_state = 0;
  Duration work_done = Duration::zero();
  Duration lost_work = Duration::zero();
  TimePoint completion = TimePoint::max();
};

enum class Interrupt { kFence, kDiscard, kHedgeCancel, kSlowdown };

/// One function of five 1 s states on a uniform cluster. When it starts
/// executing at T0, an event at T0 + `scheduled_at_states` state lengths
/// schedules `interrupt` for T0 + 3 state lengths: the commit of state 2.
class Boundary : public faas::PlatformObserver {
 public:
  Boundary(bool events, Interrupt interrupt, double scheduled_at_states)
      : cluster_(uniform_nodes(4)),
        network_(&cluster_, {}),
        platform_(sim_, cluster_, network_, config(), metrics_),
        retry_(platform_),
        interrupt_(interrupt),
        scheduled_at_states_(scheduled_at_states) {
    if (events) platform_.set_event_log(&log_);
    platform_.set_recovery_handler(&retry_);
    platform_.add_observer(this);
  }

  Progress run() {
    faas::JobSpec job;
    for (int f = 0; f < 2; ++f) {
      faas::FunctionSpec fn;
      fn.name = "f" + std::to_string(f);
      fn.states = faas::StateTable(5, {Duration::sec(1.0), Bytes::zero()});
      fn.finalize = Duration::msec(100);
      job.functions.push_back(fn);
    }
    const auto id = platform_.submit_job(job);
    EXPECT_TRUE(id.ok());
    target_ = platform_.job_functions(id.value()).front();
    other_ = platform_.job_functions(id.value()).back();
    sim_.run();
    EXPECT_TRUE(platform_.job_completed(id.value()));
    seen_.completion = platform_.invocation(target_).completion_time;
    return seen_;
  }

  void on_attempt_started(const faas::Invocation& inv) override {
    if (inv.id != target_ || inv.attempt != 1) return;
    const Duration state =
        Duration::sec(1.0) * cluster_.node(inv.node).speed();
    const TimePoint t0 = sim_.now();
    const TimePoint at = t0 + state * 3.0;
    const NodeId node = inv.node;
    sim_.schedule_at(t0 + state * scheduled_at_states_, [this, at, node] {
      sim_.schedule_at(at, [this, node] {
        switch (interrupt_) {
          case Interrupt::kFence: platform_.confirm_node_dead(node); break;
          case Interrupt::kDiscard: platform_.discard_function(target_); break;
          case Interrupt::kHedgeCancel:
            platform_.cancel_hedge(target_, other_);
            break;
          case Interrupt::kSlowdown:
            platform_.set_node_slowdown(node, 2.0);
            break;
        }
        record(platform_.invocation(target_));
      });
    });
  }

 private:
  static faas::PlatformConfig config() {
    faas::PlatformConfig config;
    config.scheduler_overhead = Duration::zero();
    return config;
  }

  void record(const faas::Invocation& inv) {
    seen_.phase = inv.phase;
    seen_.next_state = inv.next_state;
    seen_.work_done = inv.work_done;
    seen_.lost_work = inv.lost_work;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  obs::EventLog log_;
  faas::Platform platform_;
  faas::RetryHandler retry_;
  Interrupt interrupt_;
  double scheduled_at_states_;
  FunctionId target_;
  FunctionId other_;
  Progress seen_;
};

void expect_boundary_agrees(Interrupt interrupt) {
  // Scheduled inside state 2 (which starts at 2.0), after its start: the
  // per-state commit of state 2 fires first. Scheduled inside state 1:
  // the interruption fires first and state 2 is still in flight.
  for (const double scheduled : {2.5, 1.5}) {
    SCOPED_TRACE("scheduled at state " + std::to_string(scheduled));
    const Progress per_state = Boundary(true, interrupt, scheduled).run();
    const Progress segments = Boundary(false, interrupt, scheduled).run();
    EXPECT_EQ(per_state.next_state, scheduled > 2.0 ? 3u : 2u);
    EXPECT_EQ(per_state.phase, segments.phase);
    EXPECT_EQ(per_state.next_state, segments.next_state);
    EXPECT_EQ(per_state.work_done.count_usec(),
              segments.work_done.count_usec());
    EXPECT_EQ(per_state.lost_work.count_usec(),
              segments.lost_work.count_usec());
    EXPECT_EQ(per_state.completion.count_usec(),
              segments.completion.count_usec());
  }
}

TEST(SegmentBoundaryTest, DetectorFenceOnASkippedCommit) {
  expect_boundary_agrees(Interrupt::kFence);
}

TEST(SegmentBoundaryTest, DiscardOnASkippedCommit) {
  expect_boundary_agrees(Interrupt::kDiscard);
}

TEST(SegmentBoundaryTest, HedgeCancelOnASkippedCommit) {
  expect_boundary_agrees(Interrupt::kHedgeCancel);
}

TEST(SegmentBoundaryTest, SlowdownOnASkippedCommit) {
  // The state that follows the speed change runs at the new speed only if
  // it starts after the change: the completion time tells them apart.
  expect_boundary_agrees(Interrupt::kSlowdown);
}

}  // namespace
}  // namespace canary

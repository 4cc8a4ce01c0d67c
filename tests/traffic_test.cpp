// Traffic subsystem tests: arrival-process determinism and rate
// matching, admission accounting, full-scenario conservation, the
// autoscaler's safety invariants, and the chaos conservation oracle
// firing on doctored totals.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "obs/metric_registry.hpp"
#include "sim/simulator.hpp"
#include "traffic/admission.hpp"
#include "traffic/arrival.hpp"
#include "traffic/autoscaler.hpp"
#include "traffic/generator.hpp"

namespace canary::traffic {
namespace {

std::vector<TimePoint> collect(ArrivalProcess& p, Duration horizon,
                               std::size_t cap = 1u << 20) {
  std::vector<TimePoint> out;
  TimePoint cursor = TimePoint::origin();
  const TimePoint end = TimePoint::origin() + horizon;
  while (out.size() < cap) {
    const std::optional<TimePoint> at = p.next(cursor);
    if (!at.has_value() || *at > end) break;
    out.push_back(*at);
    cursor = *at;
  }
  return out;
}

ArrivalSpec spec_of(ArrivalSpec::Kind kind) {
  ArrivalSpec spec;
  spec.kind = kind;
  spec.rate_hz = 20.0;
  spec.off_rate_hz = 2.0;
  spec.on_mean = Duration::sec(3.0);
  spec.off_mean = Duration::sec(2.0);
  return spec;
}

class ArrivalKindTest : public ::testing::TestWithParam<ArrivalSpec::Kind> {};

TEST_P(ArrivalKindTest, SameSeedSameStream) {
  const ArrivalSpec spec = spec_of(GetParam());
  auto a = make_arrival_process(spec, Rng(7));
  auto b = make_arrival_process(spec, Rng(7));
  const auto sa = collect(*a, Duration::sec(30.0));
  const auto sb = collect(*b, Duration::sec(30.0));
  ASSERT_FALSE(sa.empty());
  EXPECT_EQ(sa, sb);
}

TEST_P(ArrivalKindTest, ArrivalsStrictlyAdvance) {
  auto p = make_arrival_process(spec_of(GetParam()), Rng(11));
  const auto s = collect(*p, Duration::sec(30.0));
  ASSERT_GE(s.size(), 2u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArrivalKindTest,
                         ::testing::Values(ArrivalSpec::Kind::kPoisson,
                                           ArrivalSpec::Kind::kOnOff));

TEST(ArrivalTest, DifferentSeedsDifferentStreams) {
  const ArrivalSpec spec = spec_of(ArrivalSpec::Kind::kPoisson);
  auto a = make_arrival_process(spec, Rng(7));
  auto b = make_arrival_process(spec, Rng(8));
  EXPECT_NE(collect(*a, Duration::sec(10.0)),
            collect(*b, Duration::sec(10.0)));
}

// Property: over a long horizon, the empirical rate of every stochastic
// process matches the analytic mean within tolerance, across seeds.
class RateMatchTest
    : public ::testing::TestWithParam<std::tuple<ArrivalSpec::Kind, int>> {};

TEST_P(RateMatchTest, EmpiricalMatchesAnalyticRate) {
  const auto [kind, seed] = GetParam();
  const ArrivalSpec spec = spec_of(kind);
  const Duration horizon = Duration::sec(2000.0);
  auto p = make_arrival_process(spec, Rng(static_cast<std::uint64_t>(seed)));
  const auto arrivals = collect(*p, horizon);
  const double empirical =
      static_cast<double>(arrivals.size()) / horizon.to_seconds();
  const double analytic = spec.mean_rate_hz();
  ASSERT_GT(analytic, 0.0);
  EXPECT_NEAR(empirical / analytic, 1.0, 0.15)
      << "empirical " << empirical << " Hz vs analytic " << analytic << " Hz";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByKind, RateMatchTest,
    ::testing::Combine(::testing::Values(ArrivalSpec::Kind::kPoisson,
                                         ArrivalSpec::Kind::kOnOff),
                       ::testing::Values(1, 2, 3, 4, 5)));

// ---- admission ----------------------------------------------------------

TEST(AdmissionTest, AdmitsQueuesThenSheds) {
  std::vector<std::string> submitted;
  std::vector<std::string> shed;
  AdmissionController ctl(
      [&submitted](faas::JobSpec spec) { submitted.push_back(spec.name); },
      [&shed](faas::JobSpec spec) { shed.push_back(spec.name); });
  AdmissionClassConfig cfg;
  cfg.max_concurrent = 2;
  cfg.queue_capacity = 3;
  const std::size_t cls = ctl.add_class(cfg);

  std::vector<AdmissionOutcome> outcomes;
  for (int i = 0; i < 10; ++i) {
    faas::JobSpec job;
    job.name = "j" + std::to_string(i);
    outcomes.push_back(ctl.offer(cls, std::move(job)));
  }
  EXPECT_EQ(outcomes[0], AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[1], AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[2], AdmissionOutcome::kQueued);
  EXPECT_EQ(outcomes[4], AdmissionOutcome::kQueued);
  EXPECT_EQ(outcomes[5], AdmissionOutcome::kShed);
  EXPECT_EQ(outcomes[9], AdmissionOutcome::kShed);

  // The callbacks see every outcome exactly once: the controller keeps no
  // admitted or shed totals of its own.
  const auto& stats = ctl.stats(cls);
  EXPECT_EQ(stats.offered, 10u);
  EXPECT_EQ(submitted.size(), 2u);
  EXPECT_EQ(shed.size(), 5u);
  EXPECT_EQ(stats.queue_peak, 3u);
  EXPECT_EQ(ctl.total_queued(), 3u);
  EXPECT_EQ(ctl.total_in_flight(), 2u);

  // Completions pump the backlog in FIFO order.
  ctl.on_complete(cls);
  ASSERT_EQ(submitted.size(), 3u);
  EXPECT_EQ(submitted[2], "j2");
  ctl.on_complete(cls);
  ctl.on_complete(cls);
  EXPECT_EQ(submitted.back(), "j4");
  EXPECT_EQ(ctl.total_queued(), 0u);
  // Conservation: offered == admitted + shed + still-queued.
  EXPECT_EQ(stats.offered,
            submitted.size() + shed.size() + ctl.total_queued());
}

TEST(AdmissionTest, RejectAdmittedRollsBackToShed) {
  // A submit callback that cannot place its request rolls it back the way
  // the traffic generator does: it recounts the request from admitted to
  // shed and frees the slot re-entrantly. The controller must not call
  // the shed callback for it again.
  std::size_t cls = 0;
  int admitted = 0;
  int shed = 0;
  AdmissionController* self = nullptr;
  AdmissionController ctl(
      [&](faas::JobSpec spec) {
        ++admitted;
        if (spec.name != "invalid") return;
        EXPECT_EQ(admitted, 1);
        EXPECT_EQ(self->total_in_flight(), 1u);
        --admitted;
        ++shed;
        self->reject_admitted(cls);
      },
      [&shed](faas::JobSpec) { ++shed; });
  self = &ctl;
  AdmissionClassConfig cfg;
  cfg.max_concurrent = 1;
  cls = ctl.add_class(cfg);
  faas::JobSpec invalid;
  invalid.name = "invalid";
  EXPECT_EQ(ctl.offer(cls, std::move(invalid)), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admitted, 0);
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(ctl.total_in_flight(), 0u);
  // The freed slot admits the next arrival.
  EXPECT_EQ(ctl.offer(cls, {}), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(shed, 1);
}

// ---- full-scenario conservation and determinism -------------------------

harness::ScenarioConfig traffic_scenario(double rate_hz,
                                         std::size_t max_concurrent,
                                         bool autoscale = false) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::retry();
  config.error_rate = 0.0;
  config.cluster_nodes = 4;
  config.seed = 77;
  config.traffic.enabled = true;
  config.traffic.horizon = Duration::sec(10.0);
  StreamConfig stream;
  stream.name = "web";
  stream.fn.runtime = faas::RuntimeImage::kPython3;
  stream.fn.states = faas::StateTable(1, {Duration::msec(200), {}});
  stream.fn.finalize = Duration::msec(50);
  stream.arrival.kind = ArrivalSpec::Kind::kPoisson;
  stream.arrival.rate_hz = rate_hz;
  stream.admission.max_concurrent = max_concurrent;
  stream.admission.queue_capacity = 8;
  config.traffic.streams.push_back(std::move(stream));
  config.traffic.autoscaler.enabled = autoscale;
  return config;
}

/// A traffic run's totals, read off its metric registry.
struct TrafficTotals {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t queued_end = 0;
};

TrafficTotals totals_of(const harness::RunResult& result) {
  const obs::MetricRegistry& m = result.metrics;
  TrafficTotals t;
  t.offered = static_cast<std::uint64_t>(m.counter("traffic_offered"));
  t.admitted = static_cast<std::uint64_t>(m.counter("traffic_admitted"));
  t.shed = static_cast<std::uint64_t>(m.counter("traffic_shed"));
  t.completed = static_cast<std::uint64_t>(m.counter("traffic_completed"));
  t.in_flight = static_cast<std::uint64_t>(m.gauge("traffic_in_flight_end"));
  t.queued_end = static_cast<std::uint64_t>(m.gauge("traffic_queued_end"));
  return t;
}

TEST(TrafficScenarioTest, ConservationHoldsUnderload) {
  const auto result =
      harness::ScenarioRunner::run(traffic_scenario(10.0, 16), {});
  ASSERT_EQ(result.metrics.gauges().count("traffic_queued_end"), 1u);
  const TrafficTotals t = totals_of(result);
  EXPECT_GT(t.offered, 0u);
  EXPECT_GT(t.completed, 0u);
  EXPECT_EQ(t.offered, t.admitted + t.shed + t.queued_end);
  EXPECT_EQ(t.admitted, t.completed + t.in_flight);
  EXPECT_EQ(t.in_flight, 0u);
  EXPECT_EQ(t.queued_end, 0u);
  EXPECT_EQ(t.offered, t.admitted + t.shed);
  EXPECT_GT(result.metrics.histogram("traffic_latency").p50(), 0.0);
}

TEST(TrafficScenarioTest, OverloadShedsButConservationHolds) {
  // 40 Hz offered into a single-slot class: most arrivals must shed, and
  // every one of them must still be accounted for.
  const auto result =
      harness::ScenarioRunner::run(traffic_scenario(40.0, 1), {});
  const TrafficTotals t = totals_of(result);
  EXPECT_GT(t.shed, 0u);
  EXPECT_EQ(t.offered, t.admitted + t.shed + t.queued_end);
  EXPECT_EQ(t.admitted, t.completed + t.in_flight);
  EXPECT_EQ(t.offered, t.admitted + t.shed);
  EXPECT_EQ(t.admitted, t.completed);
  // Shed arrivals surface as terminal invocations, never silently vanish.
  auto it = result.counters.find("functions_shed");
  ASSERT_NE(it, result.counters.end());
  EXPECT_EQ(static_cast<std::uint64_t>(it->second), t.shed);
}

TEST(TrafficScenarioTest, DeterministicForSameSeed) {
  const auto config = traffic_scenario(15.0, 4, /*autoscale=*/true);
  const auto a = harness::ScenarioRunner::run(config, {});
  const auto b = harness::ScenarioRunner::run(config, {});
  for (const char* name : {"traffic_offered", "traffic_admitted",
                           "traffic_shed", "traffic_completed",
                           "autoscaler_scale_ups"}) {
    EXPECT_EQ(a.metrics.counter(name), b.metrics.counter(name)) << name;
  }
  EXPECT_EQ(a.metrics.histogram("traffic_latency").p99(),
            b.metrics.histogram("traffic_latency").p99());
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

TEST(TrafficScenarioTest, DisabledTrafficLeavesSummaryEmpty) {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::retry();
  config.cluster_nodes = 4;
  faas::JobSpec job;
  job.name = "batch";
  faas::FunctionSpec fn;
  fn.name = "f";
  fn.states = faas::StateTable(1, {Duration::msec(100), {}});
  job.functions.push_back(fn);
  const auto result = harness::ScenarioRunner::run(config, {job});
  EXPECT_EQ(result.metrics.gauges().count("traffic_queued_end"), 0u);
  EXPECT_EQ(result.metrics.counter("traffic_offered"), 0.0);
  EXPECT_EQ(result.counters.find("traffic_offered"), result.counters.end());
}

// ---- autoscaler invariants ----------------------------------------------

/// Direct-drive fixture: platform + generator + autoscaler without the
/// harness, so the test can inspect retired container ids and events.
class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest() : cluster_(nodes()), network_(&cluster_, {}) {}

  static std::vector<cluster::NodeSpec> nodes() {
    std::vector<cluster::NodeSpec> specs(4);
    for (auto& s : specs) {
      s.cpu = cluster::CpuClass::kXeonGold6242;
      s.container_slots = 32;
    }
    return specs;
  }

  void run(TrafficConfig config) {
    faas::PlatformConfig pc;
    pc.reuse_containers = true;
    platform_.emplace(sim_, cluster_, network_, pc, metrics_);
    retry_.emplace(*platform_);
    platform_->set_recovery_handler(&*retry_);
    generator_.emplace(sim_, *platform_, std::move(config),
                       [this](faas::JobSpec spec) {
                         return platform_->submit_job(std::move(spec));
                       },
                       Rng(13).child(4));
    platform_->add_observer(&*generator_);
    autoscaler_.emplace(sim_, *platform_, *generator_);
    platform_->add_observer(&*autoscaler_);
    autoscaler_->start();
    generator_->start();
    sim_.run();
  }

  static TrafficConfig bursty_config() {
    TrafficConfig config;
    config.enabled = true;
    config.horizon = Duration::sec(12.0);
    StreamConfig stream;
    stream.name = "burst";
    stream.fn.runtime = faas::RuntimeImage::kPython3;
    stream.fn.states = faas::StateTable(1, {Duration::msec(300), {}});
    stream.fn.finalize = Duration::msec(50);
    stream.arrival.kind = ArrivalSpec::Kind::kOnOff;
    stream.arrival.rate_hz = 20.0;
    stream.arrival.off_rate_hz = 0.5;
    stream.arrival.on_mean = Duration::sec(2.0);
    stream.arrival.off_mean = Duration::sec(2.0);
    stream.admission.max_concurrent = 16;
    stream.admission.queue_capacity = 32;
    config.streams.push_back(std::move(stream));
    config.autoscaler.enabled = true;
    config.autoscaler.max_warm = 8;
    config.autoscaler.scale_in_cooldown = Duration::sec(1.0);
    config.autoscaler.drain_grace = Duration::sec(60.0);
    return config;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  std::optional<faas::Platform> platform_;
  std::optional<faas::RetryHandler> retry_;
  std::optional<TrafficGenerator> generator_;
  std::optional<WarmPoolAutoscaler> autoscaler_;
};

TEST_F(AutoscalerTest, ScalesUpUnderBurstAndDrainsToZero) {
  run(bursty_config());
  EXPECT_GT(metrics_.counter("autoscaler_scale_ups"), 0.0);
  // Every container the autoscaler launched was retired or adopted by the
  // end of the drain; destroy_warm_container CHECK-fails on a busy or
  // replica container, so reaching this line proves the safety invariant.
  for (const ContainerId id : autoscaler_->retired()) {
    EXPECT_EQ(platform_->container(id).purpose,
              faas::ContainerPurpose::kFunction);
  }
  EXPECT_TRUE(generator_->quiescent());
}

TEST_F(AutoscalerTest, NeverRetiresReplicaOrForeignContainers) {
  run(bursty_config());
  // The autoscaler only ever destroys ids it launched itself: every
  // retired id must appear in its launch ledger (the launched counter
  // bounds the retirement count).
  const double launched = metrics_.counter("autoscaler_containers_launched");
  const double retired = metrics_.counter("autoscaler_containers_retired");
  EXPECT_LE(retired, launched);
  EXPECT_GT(launched, 0.0);
}

TEST_F(AutoscalerTest, RespectsScaleUpCooldown) {
  run(bursty_config());
  const AutoscalerConfig cfg = bursty_config().autoscaler;
  std::optional<TimePoint> last_up;
  for (const WarmPoolAutoscaler::ScaleEvent& e : autoscaler_->events()) {
    EXPECT_LE(e.count, cfg.max_step);
    if (!e.up) continue;
    if (last_up.has_value()) {
      EXPECT_GE(e.at - *last_up, kScaleUpCooldown);
    }
    last_up = e.at;
  }
}

// ---- chaos integration ---------------------------------------------------

TEST(TrafficChaosTest, BurstPlusNodeFailurePassesAllOracles) {
  using recovery::StrategyKind;
  // The last three kill a node after an idle gap between bursts has
  // already completed every submitted job: the detector must still be
  // watching to confirm the death.
  const std::pair<StrategyKind, std::uint64_t> cases[] = {
      {StrategyKind::kCanary, 70001},
      {StrategyKind::kCanary, 70002},
      {StrategyKind::kCanary, 70003},
      {StrategyKind::kCanary, 70181},
      {StrategyKind::kRequestReplication, 70118},
      {StrategyKind::kActiveStandby, 70119},
  };
  for (const auto& [strategy, seed] : cases) {
    const harness::ChaosOutcome outcome = harness::run_chaos_scenario(
        {.strategy = strategy, .traffic = true}, seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_GT(outcome.total("traffic_offered"), 0.0) << "seed " << seed;
    EXPECT_EQ(outcome.total("traffic_offered"),
              outcome.total("traffic_admitted") + outcome.total("traffic_shed"))
        << "seed " << seed;
  }
}

// ---- oracle 7 fires ------------------------------------------------------

// A completed traffic chaos run whose registry each case then doctors.
struct OracleCase {
  harness::ChaosScenario scenario;
  harness::RunResult result;
};

OracleCase traffic_case(unsigned partitions) {
  OracleCase c{harness::make_chaos_scenario(
                   {.traffic = true, .partitions = partitions}, 70001),
               {}};
  c.result = harness::ScenarioRunner::run(c.scenario.config, c.scenario.jobs);
  EXPECT_TRUE(c.result.completed);
  EXPECT_TRUE(harness::chaos_oracles(c.scenario, c.result).empty());
  return c;
}

TEST(TrafficOracleTest, ExtraOfferedArrivalIsOneConservationViolation) {
  OracleCase c = traffic_case(1);
  c.result.metrics.count("traffic_offered");
  const auto violations = harness::chaos_oracles(c.scenario, c.result);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rfind("conservation: offered=", 0), 0u)
      << violations[0];
}

TEST(TrafficOracleTest, BacklogLeftByCompletedRunIsFlagged) {
  // One arrival still queued at the end, with the identity kept intact:
  // only the drained-run check can see it.
  OracleCase c = traffic_case(1);
  c.result.metrics.count("traffic_offered");
  c.result.metrics.set_gauge("traffic_queued_end", 1.0);
  const auto violations = harness::chaos_oracles(c.scenario, c.result);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0],
            "conservation: completed run left 0 arrival(s) in flight and 1 "
            "queued");
}

TEST(TrafficOracleTest, ShardOffByOneIsReportedOnceForItsShard) {
  OracleCase c = traffic_case(4);
  ASSERT_EQ(c.result.shards.size(), 4u);
  std::size_t shard = 0;
  while (shard < c.result.shards.size() &&
         c.result.shards[shard]->metrics.counter("traffic_offered") == 0.0) {
    ++shard;
  }
  ASSERT_LT(shard, c.result.shards.size());
  // Doctor the shard and, as a real merge would, the merged sum.
  auto doctored = std::make_shared<harness::RunResult>(*c.result.shards[shard]);
  doctored->metrics.count("traffic_admitted");
  c.result.shards[shard] = doctored;
  c.result.metrics.count("traffic_admitted");
  const auto violations = harness::chaos_oracles(c.scenario, c.result);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rfind(
                "shard " + std::to_string(shard) + ": conservation: ", 0),
            0u)
      << violations[0];
}

}  // namespace
}  // namespace canary::traffic

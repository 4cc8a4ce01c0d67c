// Unit tests for the hedged-request strategy (clone-with-cancellation):
// race accounting stays exactly-once through every edge the design calls
// out — same-tick completion, clone-node death before launch, hedges fired
// into a retry-backoff window, budget denial — plus the admission-layer
// hedge budget and the seeded hedge chaos family.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "cluster/network.hpp"
#include "harness/chaos.hpp"
#include "recovery/hedging.hpp"
#include "traffic/admission.hpp"

namespace canary::recovery {
namespace {

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

faas::FunctionSpec probe() {
  faas::FunctionSpec fn;
  fn.name = "p";
  fn.runtime = faas::RuntimeImage::kPython3;
  fn.states = faas::StateTable(2, {Duration::sec(1.0), {}});
  fn.finalize = Duration::msec(100);
  return fn;
}

class KillSet : public faas::FailurePolicy {
 public:
  void kill(FunctionId id, int attempt, Duration offset) {
    plans_.push_back({id, attempt, offset});
  }
  std::optional<Duration> plan_kill(const faas::Invocation& inv, int attempt,
                                    Duration) override {
    for (const auto& plan : plans_) {
      if (plan.id == inv.id && plan.attempt == attempt) return plan.offset;
    }
    return std::nullopt;
  }

 private:
  struct Plan {
    FunctionId id;
    int attempt;
    Duration offset;
  };
  std::vector<Plan> plans_;
};

class HedgeTest : public ::testing::Test {
 protected:
  explicit HedgeTest(std::size_t nodes = 4)
      : cluster_(uniform_nodes(nodes)), network_(&cluster_, {}) {
    faas::PlatformConfig config;
    config.scheduler_overhead = Duration::zero();
    platform_.emplace(sim_, cluster_, network_, config, metrics_);
    platform_->set_failure_policy(&kills_);
  }

  HedgeHandler& install(HedgeConfig config) {
    handler_.emplace(*platform_, config);
    platform_->set_recovery_handler(&*handler_);
    platform_->add_observer(&*handler_);
    return *handler_;
  }

  JobId submit_probe() {
    faas::JobSpec job;
    job.name = "req";
    job.functions.push_back(probe());
    const auto id = platform_->submit_job(std::move(job));
    EXPECT_TRUE(id.ok());
    return id.value();
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  KillSet kills_;
  std::optional<faas::Platform> platform_;
  std::optional<HedgeHandler> handler_;
};

// ---- race resolution edges ----------------------------------------------

// Loser and winner complete in the same sim-tick. The primary is killed
// 0.2s into launch; detection surfaces the failure at 0.5s and the retry
// restarts it cold (completion 0.5 + 2.9 = 3.4s). The hedge timer also
// fires at 0.5s, so the clone launches cold at the same instant and
// completes at the same 3.4s timestamp. Whichever completion event drains
// first wins; the loser's own completion must not double-count — the race
// resolves exactly-once either way.
TEST_F(HedgeTest, SameTickCompletionResolvesExactlyOnce) {
  HedgeConfig config;
  config.initial_delay = Duration::msec(500);
  auto& hedge = install(config);

  faas::JobSpec spec;
  spec.name = "req";
  spec.functions.push_back(probe());
  const auto submitted = platform_->submit_job(std::move(spec));
  ASSERT_TRUE(submitted.ok());
  const JobId job = submitted.value();
  kills_.kill(platform_->job_functions(job)[0], 1, Duration::msec(200));
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(job));
  EXPECT_NEAR(platform_->job_completion_time(job).to_seconds(), 3.4, 0.05);
  EXPECT_EQ(metrics_.counter("hedges_fired"), 1.0);
  // Exactly one resolution: a win or a cancellation, never both or neither.
  EXPECT_EQ(metrics_.counter("hedge_wins") +
                metrics_.counter("hedges_cancelled"),
            1.0);
  EXPECT_EQ(hedge.open_races(), 0u);
  // Both copies are terminal: the winner completed, the loser discarded.
  const auto& functions = platform_->job_functions(job);
  ASSERT_EQ(functions.size(), 2u);
  for (const FunctionId id : functions) {
    EXPECT_EQ(platform_->invocation(id).phase, faas::Phase::kCompleted);
  }
  EXPECT_EQ(metrics_.counter("functions_discarded"), 1.0);
  // Both copies finished at the same timestamp: a true same-tick race.
  EXPECT_EQ(platform_->invocation(functions[0]).completion_time,
            platform_->invocation(functions[1]).completion_time);
}

// The clone's node dies while the clone is still launching. The clone is
// never retried — its failure closes the race and the primary carries the
// request at its natural pace.
class HedgeTwoNodeTest : public HedgeTest {
 protected:
  HedgeTwoNodeTest() : HedgeTest(2) {}
};

TEST_F(HedgeTwoNodeTest, CloneNodeDiesBeforeLaunchClosesRace) {
  HedgeConfig config;
  config.initial_delay = Duration::msec(500);
  auto& hedge = install(config);

  const JobId job = submit_probe();
  // The clone fires at 0.5s and launches cold until ~1.3s; kill its node
  // at 0.7s, mid-launch. (Anti-affinity puts it on the other node, but
  // resolve the node from the clone itself so the test does not assume.)
  sim_.schedule_after(Duration::msec(700), [this, job] {
    const auto& functions = platform_->job_functions(job);
    ASSERT_EQ(functions.size(), 2u) << "hedge did not fire";
    platform_->fail_node(platform_->invocation(functions[1]).node);
  });
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(job));
  // The primary never noticed: completion at the unhedged 2.9s pace.
  EXPECT_NEAR(platform_->job_completion_time(job).to_seconds(), 2.9, 0.05);
  EXPECT_EQ(metrics_.counter("hedges_fired"), 1.0);
  EXPECT_EQ(metrics_.counter("hedge_wins"), 0.0);
  EXPECT_EQ(metrics_.counter("hedges_cancelled"), 1.0);
  EXPECT_EQ(hedge.open_races(), 0u);
  // A clone is never restarted: its failure produced no hedge_retry.
  EXPECT_EQ(metrics_.counter("hedge_retries"), 0.0);
  const auto& clone = platform_->invocation(platform_->job_functions(job)[1]);
  EXPECT_EQ(clone.attempt, 1);
}

// The primary fails and sits out a retry backoff; the hedge timer fires
// into that window and the clone wins the race outright. The backoff's
// pending restart must then detect the discarded primary as stale and
// drop, leaving the primary on its first (failed, superseded) attempt.
TEST_F(HedgeTest, HedgeFiredDuringRetryBackoffWindow) {
  HedgeConfig config;
  config.initial_delay = Duration::sec(1.0);
  config.retry_backoff = Duration::sec(4.0);
  auto& hedge = install(config);

  faas::JobSpec spec;
  spec.name = "req";
  spec.functions.push_back(probe());
  const auto submitted = platform_->submit_job(std::move(spec));
  ASSERT_TRUE(submitted.ok());
  const JobId job = submitted.value();
  // Primary dies 200ms into launch; detection surfaces it at ~0.5s and
  // the backoff schedules its restart for ~4.5s.
  kills_.kill(platform_->job_functions(job)[0], 1, Duration::msec(200));
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(job));
  // The clone launched cold at 1.0s and finished at ~3.9s — well before
  // the primary's 4.5s restart would even begin.
  EXPECT_NEAR(platform_->job_completion_time(job).to_seconds(), 3.9, 0.1);
  EXPECT_EQ(metrics_.counter("hedges_fired"), 1.0);
  EXPECT_EQ(metrics_.counter("hedge_wins"), 1.0);
  EXPECT_EQ(metrics_.counter("hedges_cancelled"), 0.0);
  EXPECT_EQ(metrics_.counter("hedge_retries"), 1.0);
  EXPECT_EQ(hedge.open_races(), 0u);
  // The stale restart was dropped: the primary never got a second attempt.
  const auto& primary = platform_->invocation(platform_->job_functions(job)[0]);
  EXPECT_EQ(primary.attempt, 1);
}

// ---- budget gates --------------------------------------------------------

TEST_F(HedgeTest, ExhaustedGlobalBudgetDeniesClone) {
  HedgeConfig config;
  config.initial_delay = Duration::msec(500);
  config.max_outstanding = 0;
  install(config);

  const JobId job = submit_probe();
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(job));
  EXPECT_EQ(metrics_.counter("hedges_fired"), 0.0);
  EXPECT_EQ(metrics_.counter("hedges_denied"), 1.0);
  EXPECT_EQ(platform_->job_functions(job).size(), 1u);
}

TEST_F(HedgeTest, BudgetHookDenialBlocksCloneWithoutCharge) {
  HedgeConfig config;
  config.initial_delay = Duration::msec(500);
  auto& hedge = install(config);
  int asked = 0;
  int released = 0;
  hedge.set_budget_hooks([&asked](JobId) { ++asked; return false; },
                         [&released](JobId) { ++released; });

  const JobId job = submit_probe();
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(job));
  EXPECT_EQ(asked, 1);
  EXPECT_EQ(released, 0);  // denied grants are never released
  EXPECT_EQ(metrics_.counter("hedges_fired"), 0.0);
  EXPECT_EQ(metrics_.counter("hedges_denied"), 1.0);
}

TEST_F(HedgeTest, BudgetHookGrantIsReleasedExactlyOnce) {
  HedgeConfig config;
  config.initial_delay = Duration::msec(500);
  auto& hedge = install(config);
  int asked = 0;
  int released = 0;
  hedge.set_budget_hooks([&asked](JobId) { ++asked; return true; },
                         [&released](JobId) { ++released; });

  const JobId job = submit_probe();
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(job));
  EXPECT_EQ(asked, 1);
  EXPECT_EQ(released, 1);
  EXPECT_EQ(metrics_.counter("hedges_fired"), 1.0);
}

// The admission-layer budget gate the traffic generator wires those hooks
// to: grants up to hedge_budget while the class is unsaturated, denies the
// moment a backlog exists, and recycles grants via hedge_done.
TEST(AdmissionHedgeBudgetTest, GrantsToBudgetAndDeniesUnderBacklog) {
  int submitted = 0;
  traffic::AdmissionController ctl(
      [&submitted](faas::JobSpec) { ++submitted; }, [](faas::JobSpec) {});
  traffic::AdmissionClassConfig cfg;
  cfg.max_concurrent = 2;
  cfg.queue_capacity = 4;
  cfg.hedge_budget = 2;
  const std::size_t cls = ctl.add_class(cfg);
  // The controller keeps no grant or denial totals; count try_hedge's
  // answers (the hedge handler counts denials as hedges_denied).
  int granted = 0;
  int denied = 0;
  const auto hedge = [&] {
    const bool ok = ctl.try_hedge(cls);
    ++(ok ? granted : denied);
    return ok;
  };

  ASSERT_EQ(ctl.offer(cls, {}), traffic::AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(hedge());
  EXPECT_TRUE(hedge());
  EXPECT_FALSE(hedge());  // budget exhausted
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(denied, 1);

  ctl.hedge_done(cls);
  EXPECT_TRUE(hedge());  // the grant recycles

  // Saturate the class: a backlogged class denies hedges outright even
  // with budget to spare.
  ASSERT_EQ(ctl.offer(cls, {}), traffic::AdmissionOutcome::kAdmitted);
  ASSERT_EQ(ctl.offer(cls, {}), traffic::AdmissionOutcome::kQueued);
  ctl.hedge_done(cls);
  ctl.hedge_done(cls);
  EXPECT_EQ(ctl.stats(cls).hedges_active, 0u);
  EXPECT_FALSE(hedge());
  EXPECT_EQ(denied, 2);
}

// ---- seeded chaos family -------------------------------------------------

// The hedged strategy over the stragglers overlay (racing clones, gray
// windows, mid-race node kills).
constexpr harness::ChaosSpec kHedgeChaos{.strategy = StrategyKind::kHedge,
                                         .stragglers = true};

TEST(HedgeChaosTest, SameSeedSameOutcome) {
  const auto a = harness::run_chaos_scenario(kHedgeChaos, 50001);
  const auto b = harness::run_chaos_scenario(kHedgeChaos, 50001);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.violations, b.violations);
}

// 64-seed sweep: the hedge exactly-once oracle — and every other oracle —
// must hold on all of them.
TEST(HedgeChaosTest, SixtyFourSeedSweepPassesAllOracles) {
  double fired = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t seed = 50001 + i;
    const auto outcome = harness::run_chaos_scenario(kHedgeChaos, seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_EQ(outcome.total("hedges_fired"),
              outcome.total("hedge_wins") + outcome.total("hedges_cancelled"))
        << "seed " << seed << " leaked an open race";
    fired += outcome.total("hedges_fired");
  }
  // The family is not vacuous: the sweep actually raced clones.
  EXPECT_GT(fired, 0.0);
}

TEST(HedgeChaosTest, OpenRaceOnCompletedRunFiresBothHedgeChecks) {
  // Oracle 8 reads the handler's own count of open races; doctoring it
  // on a clean completed run must trip both the resolution identity and
  // the nothing-left-open check.
  const harness::ChaosScenario scenario =
      harness::make_chaos_scenario(kHedgeChaos, 50001);
  harness::RunResult result =
      harness::ScenarioRunner::run(scenario.config, scenario.jobs);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.metrics.gauges().count("hedge_open_races"), 1u);
  ASSERT_GT(result.metrics.counter("hedges_fired"), 0.0);
  ASSERT_TRUE(harness::chaos_oracles(scenario, result).empty());

  result.metrics.set_gauge("hedge_open_races", 1.0);
  const auto violations = harness::chaos_oracles(scenario, result);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].rfind("hedge-exactly-once: fired=", 0), 0u)
      << violations[0];
  EXPECT_NE(violations[0].find(" + open=1"), std::string::npos)
      << violations[0];
  EXPECT_EQ(violations[1],
            "hedge-exactly-once: completed run left 1 race(s) open");
}

}  // namespace
}  // namespace canary::recovery

// Unit tests for the failure injector.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/network.hpp"
#include "failure/injector.hpp"
#include "faas/retry.hpp"

namespace canary::failure {
namespace {

faas::FunctionSpec tiny_function() {
  faas::FunctionSpec fn;
  fn.name = "f";
  fn.states = faas::StateTable(1, {Duration::sec(1.0), {}});
  return fn;
}

faas::Invocation fake_invocation(std::uint64_t id) {
  static faas::FunctionSpec spec = tiny_function();
  faas::Invocation inv;
  inv.id = FunctionId{id};
  inv.spec = &spec;
  return inv;
}

TEST(FailureInjectorTest, ZeroRateNeverKills) {
  FailureInjector injector(Rng(1), {0.0, InjectionMode::kOncePerFunction, 1});
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_FALSE(injector.plan_kill(fake_invocation(i), 1, Duration::sec(10))
                     .has_value());
  }
  EXPECT_EQ(injector.totals().planned_kills, 0u);
}

TEST(FailureInjectorTest, FullRateKillsEveryFunctionOnce) {
  FailureInjector injector(Rng(2), {1.0, InjectionMode::kOncePerFunction, 1});
  for (std::uint64_t i = 1; i <= 50; ++i) {
    auto inv = fake_invocation(i);
    const auto kill = injector.plan_kill(inv, 1, Duration::sec(10));
    ASSERT_TRUE(kill.has_value());
    EXPECT_GE(kill->count_usec(), 0);
    EXPECT_LE(*kill, Duration::sec(10));
    // Second attempt of the same function runs clean.
    EXPECT_FALSE(injector.plan_kill(inv, 2, Duration::sec(10)).has_value());
  }
  EXPECT_EQ(injector.totals().planned_kills, 50u);
}

TEST(FailureInjectorTest, ErrorRateMatchesFractionOfFunctions) {
  FailureInjector injector(Rng(3), {0.25, InjectionMode::kOncePerFunction, 1});
  int killed = 0;
  const int n = 20000;
  for (std::uint64_t i = 1; i <= n; ++i) {
    if (injector.plan_kill(fake_invocation(i), 1, Duration::sec(5))) ++killed;
  }
  EXPECT_NEAR(static_cast<double>(killed) / n, 0.25, 0.01);
}

TEST(FailureInjectorTest, DecisionIsPerFunctionDeterministic) {
  // Two injectors with the same seed agree on every function's fate even
  // if queried in different orders.
  FailureInjector a(Rng(7), {0.5, InjectionMode::kOncePerFunction, 1});
  FailureInjector b(Rng(7), {0.5, InjectionMode::kOncePerFunction, 1});
  std::vector<std::optional<Duration>> from_a;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    from_a.push_back(a.plan_kill(fake_invocation(i), 1, Duration::sec(1)));
  }
  for (std::uint64_t i = 20; i >= 1; --i) {
    const auto kill = b.plan_kill(fake_invocation(i), 1, Duration::sec(1));
    EXPECT_EQ(kill.has_value(), from_a[i - 1].has_value());
    if (kill && from_a[i - 1]) {
      EXPECT_EQ(*kill, *from_a[i - 1]);
    }
  }
}

TEST(FailureInjectorTest, KillOnLaterAttempt) {
  FailureInjector injector(Rng(4), {1.0, InjectionMode::kOncePerFunction, 2});
  auto inv = fake_invocation(1);
  EXPECT_FALSE(injector.plan_kill(inv, 1, Duration::sec(1)).has_value());
  EXPECT_TRUE(injector.plan_kill(inv, 2, Duration::sec(1)).has_value());
  EXPECT_FALSE(injector.plan_kill(inv, 3, Duration::sec(1)).has_value());
}

TEST(FailureInjectorTest, PerAttemptModeResamples) {
  FailureInjector injector(Rng(5), {1.0, InjectionMode::kPerAttempt, 1});
  auto inv = fake_invocation(1);
  // Rate 1.0: every attempt is killed.
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_TRUE(
        injector.plan_kill(inv, attempt, Duration::sec(1)).has_value());
  }
}

TEST(FailureInjectorTest, PerAttemptRateIsPerAttempt) {
  FailureInjector injector(Rng(6), {0.3, InjectionMode::kPerAttempt, 1});
  int kills = 0;
  const int n = 20000;
  for (std::uint64_t i = 1; i <= n; ++i) {
    if (injector.plan_kill(fake_invocation(i), 2, Duration::sec(1))) ++kills;
  }
  EXPECT_NEAR(static_cast<double>(kills) / n, 0.3, 0.01);
}

TEST(FailureInjectorTest, KillOffsetScalesWithBusyEstimate) {
  FailureInjector injector(Rng(8), {1.0, InjectionMode::kOncePerFunction, 1});
  FailureInjector injector2(Rng(8), {1.0, InjectionMode::kOncePerFunction, 1});
  const auto short_kill =
      injector.plan_kill(fake_invocation(1), 1, Duration::sec(1));
  const auto long_kill =
      injector2.plan_kill(fake_invocation(1), 1, Duration::sec(100));
  ASSERT_TRUE(short_kill && long_kill);
  // Same fraction, different scale (integer-microsecond truncation allows
  // up to 100 us of slack after scaling).
  EXPECT_NEAR(long_kill->to_seconds(), short_kill->to_seconds() * 100.0, 1e-4);
}

TEST(FailureInjectorTest, HazardRateFirstAttemptMatchesErrorRate) {
  FailureInjector injector(Rng(12), {0.3, InjectionMode::kHazardRate, 1});
  int kills = 0;
  const int n = 20000;
  for (std::uint64_t i = 1; i <= n; ++i) {
    // First query fixes the reference exposure: probability == error rate.
    if (injector.plan_kill(fake_invocation(i), 1, Duration::sec(10))) ++kills;
  }
  EXPECT_NEAR(static_cast<double>(kills) / n, 0.3, 0.01);
}

TEST(FailureInjectorTest, HazardRateShortAttemptsRarelyDie) {
  FailureInjector injector(Rng(13), {0.5, InjectionMode::kHazardRate, 1});
  int long_kills = 0, short_kills = 0;
  const int n = 20000;
  for (std::uint64_t i = 1; i <= n; ++i) {
    auto inv = fake_invocation(i);
    // Attempt 1 sets the 10s reference; attempt 2 is a checkpoint-resumed
    // 1s stub with a tenth of the exposure.
    if (injector.plan_kill(inv, 1, Duration::sec(10))) ++long_kills;
    if (injector.plan_kill(inv, 2, Duration::sec(1))) ++short_kills;
  }
  // p_long = 0.5; p_short = 1 - 0.5^(0.1) ~= 0.067.
  EXPECT_NEAR(static_cast<double>(long_kills) / n, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(short_kills) / n, 0.067, 0.01);
}

TEST(FailureInjectorTest, HazardRateLongerExposureDiesMore) {
  FailureInjector injector(Rng(14), {0.2, InjectionMode::kHazardRate, 1});
  int double_kills = 0;
  const int n = 20000;
  for (std::uint64_t i = 1; i <= n; ++i) {
    auto inv = fake_invocation(i);
    (void)injector.plan_kill(inv, 1, Duration::sec(10));  // set reference
    // A retry attempt that somehow runs twice as long is exposed twice.
    if (injector.plan_kill(inv, 2, Duration::sec(20))) ++double_kills;
  }
  // p = 1 - 0.8^2 = 0.36.
  EXPECT_NEAR(static_cast<double>(double_kills) / n, 0.36, 0.012);
}

TEST(FailureInjectorTest, NodeFailureTakesDownNodeAndKvCopies) {
  sim::Simulator sim;
  auto cluster = cluster::Cluster::testbed(4);
  cluster::NetworkModel network(&cluster, {});
  obs::MetricRegistry metrics;
  faas::Platform platform(sim, cluster, network, {}, metrics);
  faas::RetryHandler retry(platform);
  platform.set_recovery_handler(&retry);
  kv::KvConfig kv_config;
  kv_config.native_persistence = false;
  kv::KvStore store(kv_config, cluster.node_ids());
  ASSERT_TRUE(store.put("k", "v").ok());

  FailureInjector injector(Rng(9), {0.0, InjectionMode::kOncePerFunction, 1});
  injector.schedule_node_failure(sim, platform, &store,
                                 TimePoint::origin() + Duration::sec(1.0));
  sim.run();
  EXPECT_EQ(injector.totals().node_kills, 1u);
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_TRUE(store.contains("k"));  // replicated on surviving nodes
}

TEST(FailureInjectorTest, HazardRateHalfExposureMatchesFormula) {
  // p(d) = 1 - (1 - e)^(d / first_attempt): a resumed attempt running
  // half the reference exposure with e = 0.4 dies with 1 - 0.6^0.5.
  FailureInjector injector(Rng(15), {0.4, InjectionMode::kHazardRate, 1});
  int kills = 0;
  const int n = 20000;
  for (std::uint64_t i = 1; i <= n; ++i) {
    auto inv = fake_invocation(i);
    (void)injector.plan_kill(inv, 1, Duration::sec(10));  // set reference
    if (injector.plan_kill(inv, 2, Duration::sec(5))) ++kills;
  }
  EXPECT_NEAR(static_cast<double>(kills) / n, 1.0 - std::pow(0.6, 0.5), 0.01);
}

TEST(FailureInjectorTest, HazardRateDeterministicAcrossInjectors) {
  // Identically-seeded injectors agree on every attempt's fate and kill
  // offset — the chaos campaign's replayability depends on it.
  FailureInjector a(Rng(16), {0.5, InjectionMode::kHazardRate, 1});
  FailureInjector b(Rng(16), {0.5, InjectionMode::kHazardRate, 1});
  for (std::uint64_t i = 1; i <= 200; ++i) {
    auto inv = fake_invocation(i);
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const Duration busy = attempt == 1 ? Duration::sec(10) : Duration::sec(2);
      const auto ka = a.plan_kill(inv, attempt, busy);
      const auto kb = b.plan_kill(inv, attempt, busy);
      ASSERT_EQ(ka.has_value(), kb.has_value());
      if (ka) {
        EXPECT_EQ(*ka, *kb);
      }
    }
  }
}

TEST(FailureInjectorTest, NodeFailureSkipsAlreadyDeadVictim) {
  // Two failure events aimed at the same node must kill it exactly once:
  // the second fires after the victim is already dead and is skipped, so
  // its KV entries are not double-dropped.
  sim::Simulator sim;
  auto cluster = cluster::Cluster::testbed(4);
  cluster::NetworkModel network(&cluster, {});
  obs::MetricRegistry metrics;
  faas::Platform platform(sim, cluster, network, {}, metrics);
  faas::RetryHandler retry(platform);
  platform.set_recovery_handler(&retry);
  kv::KvConfig kv_config;
  kv_config.mode = kv::CacheMode::kPartitioned;
  kv_config.backups = 0;
  kv_config.native_persistence = false;
  kv::KvStore store(kv_config, cluster.node_ids());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store.put("ckpt/k" + std::to_string(i), "v").ok());
  }

  FailureInjector injector(Rng(11), {0.0, InjectionMode::kOncePerFunction, 1});
  const NodeId victim{2};
  injector.schedule_node_failure(sim, platform, &store,
                                 TimePoint::origin() + Duration::sec(1.0),
                                 victim);
  injector.schedule_node_failure(sim, platform, &store,
                                 TimePoint::origin() + Duration::sec(2.0),
                                 victim);
  sim.run();
  EXPECT_EQ(injector.totals().node_kills, 1u);
  EXPECT_EQ(injector.totals().skipped_node_kills, 1u);
  EXPECT_EQ(cluster.alive_count(), 3u);
  // Partitioned with zero backups: the victim's single-copy entries are
  // lost exactly once; the skipped re-kill must not recount them.
  const auto stats = store.stats();
  EXPECT_GT(stats.entries_lost, 0u);
  EXPECT_EQ(store.keys_with_prefix("").size() + stats.entries_lost, 64u);
}

TEST(FailureInjectorTest, NodeFailureSparesLastNode) {
  sim::Simulator sim;
  auto cluster = cluster::Cluster::testbed(1);
  cluster::NetworkModel network(&cluster, {});
  obs::MetricRegistry metrics;
  faas::Platform platform(sim, cluster, network, {}, metrics);
  FailureInjector injector(Rng(10), {0.0, InjectionMode::kOncePerFunction, 1});
  injector.schedule_node_failure(sim, platform, nullptr,
                                 TimePoint::origin() + Duration::sec(1.0));
  sim.run();
  EXPECT_EQ(injector.totals().node_kills, 0u);
  EXPECT_EQ(cluster.alive_count(), 1u);
}

}  // namespace
}  // namespace canary::failure

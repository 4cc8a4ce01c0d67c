// Fault surface v3: network partitions, correlated fault-domain outages,
// epoch-fenced commits, and split-brain safety. Covers the reachability
// model, the KV store's stale-epoch/quorum gates, fault-domain-aware
// placement, the end-to-end zone-cut zombie path, the correlated-kill
// double-death guard, and a mini sweep of the partition chaos family.
#include <gtest/gtest.h>

#include <unordered_map>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/event_log.hpp"
#include "recovery/strategies.hpp"

namespace canary::cluster {
namespace {

TEST(NetworkReachabilityTest, AsymmetricRulesAndQuorum) {
  Cluster cluster = Cluster::testbed(8);
  NetworkModel net(&cluster, {});
  // No rules: the fast path reports full reachability.
  EXPECT_FALSE(net.has_partitions());
  EXPECT_TRUE(net.reachable(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(net.reaches_majority(NodeId{1}));

  // A directed rule blocks only its own direction.
  const auto one_way = net.block({NodeId{1}}, {NodeId{2}});
  EXPECT_TRUE(net.has_partitions());
  EXPECT_EQ(net.active_rules(), 1u);
  EXPECT_FALSE(net.reachable(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(net.reachable(NodeId{2}, NodeId{1}));
  // Losing one peer does not cost the quorum: node 1 still exchanges
  // traffic with six of the seven other alive nodes (plus itself).
  EXPECT_TRUE(net.reaches_majority(NodeId{1}));

  // Cut node 1 off from everyone: it drops below the majority while
  // every other node keeps it (they only lose bidirectional reach to 1).
  std::vector<NodeId> others;
  for (std::size_t n = 2; n <= 8; ++n) others.push_back(NodeId{n});
  const auto isolate = net.block({NodeId{1}}, others);
  EXPECT_FALSE(net.reaches_majority(NodeId{1}));
  EXPECT_TRUE(net.reaches_majority(NodeId{2}));

  // While any rule is active a dead node never reaches the quorum.
  cluster.fail_node(NodeId{3});
  EXPECT_FALSE(net.reaches_majority(NodeId{3}));

  // Heals restore the fast path exactly: with no rules the predicate
  // short-circuits to true (liveness is the callers' job, not ours).
  net.unblock(isolate);
  net.unblock(one_way);
  EXPECT_FALSE(net.has_partitions());
  EXPECT_TRUE(net.reachable(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(net.reaches_majority(NodeId{1}));
}

TEST(FaultDomainPlacementTest, AvoidingZonePrefersOtherDomains) {
  Cluster cluster = Cluster::testbed(8);  // zones {0, 1}, four nodes each
  EXPECT_EQ(cluster.zone_of(NodeId{1}), 0u);
  EXPECT_EQ(cluster.zone_of(NodeId{4}), 0u);
  EXPECT_EQ(cluster.zone_of(NodeId{5}), 1u);
  const std::vector<NodeId> zone1 = cluster.nodes_in_zone(1);
  ASSERT_EQ(zone1.size(), 4u);
  EXPECT_EQ(zone1.front(), NodeId{5});

  // On an empty cluster the spreading probe lands outside the avoided
  // zone even though in-zone hosts are equally loaded with lower ids.
  const auto spread =
      cluster.least_loaded_avoiding_zone(Bytes::mib(256), 0, {});
  ASSERT_TRUE(spread.has_value());
  EXPECT_EQ(cluster.zone_of(*spread), 1u);

  // With every out-of-zone host excluded it falls back in-zone rather
  // than failing the placement outright.
  const auto fallback =
      cluster.least_loaded_avoiding_zone(Bytes::mib(256), 0, zone1);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(cluster.zone_of(*fallback), 0u);
}

}  // namespace
}  // namespace canary::cluster

namespace canary::kv {
namespace {

TEST(EpochFencingTest, FencedWriterCannotCommit) {
  cluster::Cluster cluster = cluster::Cluster::testbed(4);
  KvStore store(KvConfig{}, cluster.node_ids());
  ASSERT_TRUE(store.put("k", "v1", std::nullopt, NodeId{1}).ok());

  store.fence_node(NodeId{1});
  EXPECT_TRUE(store.node_fenced(NodeId{1}));
  // The zombie's commit is a no-op: rejected, counted, value untouched.
  EXPECT_FALSE(store.put("k", "zombie", std::nullopt, NodeId{1}).ok());
  EXPECT_EQ(store.stats().stale_epoch_rejects, 1u);
  EXPECT_EQ(store.get("k").value().payload, "v1");
  // Other writers are unaffected.
  EXPECT_TRUE(store.put("k2", "v", std::nullopt, NodeId{2}).ok());
}

TEST(EpochFencingTest, QuorumPredicateBlocksMidPartitionWrites) {
  cluster::Cluster cluster = cluster::Cluster::testbed(4);
  KvStore store(KvConfig{}, cluster.node_ids());
  bool partitioned = true;
  store.set_writer_quorum(
      [&](NodeId writer) { return !(partitioned && writer == NodeId{2}); });

  // Mid-partition, before the detector fences anyone: the minority
  // writer is blocked at put time, distinct from the stale-epoch case.
  EXPECT_FALSE(store.put("k", "v", std::nullopt, NodeId{2}).ok());
  EXPECT_EQ(store.stats().quorum_blocked_puts, 1u);
  EXPECT_EQ(store.stats().stale_epoch_rejects, 0u);
  EXPECT_TRUE(store.put("k", "v", std::nullopt, NodeId{3}).ok());

  partitioned = false;  // heal: the same writer commits again
  EXPECT_TRUE(store.put("k", "v2", std::nullopt, NodeId{2}).ok());
  EXPECT_EQ(store.get("k").value().payload, "v2");
}

}  // namespace
}  // namespace canary::kv

namespace canary::harness {
namespace {

double counter(const RunResult& result, const std::string& name) {
  const auto it = result.counters.find(name);
  return it == result.counters.end() ? 0.0 : it->second;
}

/// Every function that completed did so exactly once — the split-brain
/// acceptance test at the causal-log level.
void expect_exactly_once(const RunResult& result) {
  ASSERT_NE(result.events, nullptr);
  ASSERT_FALSE(result.events->truncated());
  std::unordered_map<std::uint64_t, int> completes;
  for (const obs::Event& event : *result.events) {
    if (event.kind() == obs::EventKind::kComplete &&
        event.function().valid()) {
      ++completes[event.function().value()];
    }
  }
  EXPECT_GT(completes.size(), 0u);
  for (const auto& [fn, count] : completes) {
    EXPECT_EQ(count, 1) << "function " << fn << " completed " << count
                        << " times";
  }
}

/// Long-running functions (~3.8 s of state work each) so the partition
/// windows land mid-execution — the fig13 recipe.
std::vector<faas::JobSpec> partition_jobs(int jobs_count = 3) {
  std::vector<faas::JobSpec> jobs;
  for (int j = 0; j < jobs_count; ++j) {
    faas::JobSpec job;
    job.name = "part-job-" + std::to_string(j);
    job.account = AccountId{1};
    for (int f = 0; f < 10; ++f) {
      faas::FunctionSpec fn;
      fn.name = "part-fn-" + std::to_string(j) + "-" + std::to_string(f);
      fn.runtime = faas::RuntimeImage::kPython3;
      faas::StateSpec state;
      state.duration = Duration::msec(900);
      state.checkpoint_payload = Bytes::of(1024 * 1024);
      fn.states = faas::StateTable(4, state);
      fn.finalize = Duration::msec(200);
      job.functions.push_back(std::move(fn));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

ScenarioConfig partition_config(std::size_t nodes) {
  ScenarioConfig config;
  config.seed = 20260808;
  config.cluster_nodes = nodes;
  config.error_rate = 0.0;  // faults come from the partition surface alone
  config.strategy = recovery::StrategyConfig::canary_full();
  config.detection.enabled = true;
  config.detection.heartbeat_interval = Duration::msec(250);
  config.detection.timeout_multiplier = 2.0;
  config.detection.confirm_multiplier = 1.0;
  config.detection.sweep_interval = Duration::msec(100);
  config.detection.horizon = Duration::sec(600.0);
  config.kv.mode = kv::CacheMode::kPartitioned;
  config.kv.backups = 1;
  return config;
}

TEST(PartitionScenarioTest, ZoneCutFencesZombiesWithoutSplitBrain) {
  // A 12-node / 3-zone cluster loses zone 2 behind a 5 s bipartition:
  // the majority confirms the cut-off workers dead and redeploys, the
  // minority zombies finish executing, and every zombie commit bounces
  // off the store's epoch gate.
  auto config = partition_config(12);
  ScenarioConfig::PartitionFault window;
  window.at = Duration::sec(1.0);
  window.duration = Duration::sec(5.0);
  window.zone = 2;
  config.partitions.push_back(window);

  const auto result = ScenarioRunner::run(config, partition_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.injected.partitions_started, 1u);
  EXPECT_EQ(result.injected.partitions_healed, 1u);
  EXPECT_EQ(result.partitions_active_end, 0u);
  EXPECT_GT(counter(result, "heartbeats_partition_dropped"), 0.0);
  EXPECT_GE(counter(result, "workers_confirmed_dead"), 1.0);
  EXPECT_GE(counter(result, "nodes_fenced_logical"), 1.0);

  const double attempts = counter(result, "zombie_commit_attempts");
  const double rejected = counter(result, "zombie_commits_rejected");
  EXPECT_GT(attempts, 0.0);
  EXPECT_EQ(counter(result, "zombie_commits_committed"), 0.0);
  EXPECT_EQ(attempts, rejected);
  EXPECT_GT(result.kv_stale_epoch_rejects, 0u);

  // Heal convergence: every confirmed worker is fenced, and no function
  // ran twice.
  EXPECT_TRUE(result.confirmed_workers_fenced);
  EXPECT_EQ(result.undetected_failures, 0u);
  expect_exactly_once(result);
}

TEST(PartitionScenarioTest, ZoneOutageIsOneCausalEventAndSkipsDeadNodes) {
  // Satellite regression for the correlated-kill double-death guard: a
  // second outage of an already-dead zone counts every member as a
  // skipped kill, never as a second death (so KV entries cannot be
  // double-dropped), and each outage is exactly ONE causal root event.
  auto config = partition_config(8);  // zones {0, 1}, four nodes each
  config.zone_outages.push_back({Duration::sec(1.0), 0});
  config.zone_outages.push_back({Duration::sec(2.5), 0});

  const auto result = ScenarioRunner::run(config, partition_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.injected.zone_outages, 2u);
  EXPECT_EQ(result.injected.node_kills, 4u);
  EXPECT_EQ(result.injected.skipped_node_kills, 4u);

  ASSERT_NE(result.events, nullptr);
  std::size_t outage_roots = 0;
  for (const obs::Event& event : *result.events) {
    if (event.kind() == obs::EventKind::kAnnotation &&
        event.name() == obs::Name::kInjectedZoneOutage) {
      ++outage_roots;
    }
  }
  EXPECT_EQ(outage_roots, 2u);
  expect_exactly_once(result);
}

TEST(PartitionScenarioTest, SurfaceOffLeavesCountersUntouched) {
  // The v3 surface is opt-in: with no partition faults configured none
  // of the new counters move (the byte-identity gate in CI depends on
  // this staying true).
  auto config = partition_config(8);
  const auto result = ScenarioRunner::run(config, partition_jobs(1));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.injected.partitions_started, 0u);
  EXPECT_EQ(result.injected.partitions_healed, 0u);
  EXPECT_EQ(result.injected.zone_outages, 0u);
  EXPECT_EQ(counter(result, "heartbeats_partition_dropped"), 0.0);
  EXPECT_EQ(result.kv_stale_epoch_rejects, 0u);
  EXPECT_EQ(result.kv_quorum_blocked_puts, 0u);
  EXPECT_EQ(result.counters.count("zombie_commit_attempts"), 0u);
  EXPECT_EQ(result.counters.count("nodes_fenced_logical"), 0u);
  EXPECT_TRUE(result.confirmed_workers_fenced);
}

TEST(PartitionChaosSweepTest, MiniSweepHoldsAllInvariants) {
  // A handful of partition-overlay scenarios inline in the unit suite;
  // the campaign's cells live in bench/chaos_campaign. Both partition
  // oracles (no split brain, heal convergence) run inside chaos_oracles.
  std::uint64_t partitions_started = 0;
  for (std::uint64_t seed = 10001; seed < 10005; ++seed) {
    const ChaosOutcome outcome = run_chaos_scenario({.partition = true}, seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_TRUE(outcome.completed) << "seed " << seed;
    EXPECT_EQ(outcome.total("partitions_started"),
              outcome.total("partitions_healed"))
        << "seed " << seed;
    partitions_started +=
        static_cast<std::uint64_t>(outcome.total("partitions_started"));
  }
  // The family always injects at least one window per seed.
  EXPECT_GE(partitions_started, 4u);
}

TEST(PartitionChaosSweepTest, ShardedMiniSweepHoldsAllInvariants) {
  // The same scenarios split over 4 partitions x 4 worker threads, all
  // ten oracles evaluated inside every partition plus the merged scalars.
  for (std::uint64_t seed = 10001; seed < 10003; ++seed) {
    const ChaosOutcome outcome =
        run_chaos_scenario({.partition = true, .partitions = 4}, seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_TRUE(outcome.completed) << "seed " << seed;
  }
}

// ---- oracle 10 fires -------------------------------------------------------

TEST(PartitionOracleTest, UnfencedConfirmedWorkerIsOneHealConvergenceViolation) {
  const ChaosScenario scenario = make_chaos_scenario({.partition = true}, 10001);
  RunResult result = ScenarioRunner::run(scenario.config, scenario.jobs);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.metrics.counter("workers_confirmed_dead"), 1.0);
  EXPECT_TRUE(result.confirmed_workers_fenced);
  EXPECT_TRUE(chaos_oracles(scenario, result).empty());

  result.confirmed_workers_fenced = false;
  const auto violations = chaos_oracles(scenario, result);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0],
            "heal-convergence: a worker the detector confirmed dead is not "
            "fenced");
}

}  // namespace
}  // namespace canary::harness

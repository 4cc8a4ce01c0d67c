// Chaos campaign: hundreds of seeded multi-fault scenarios (container
// kills, node failures, gray slowdowns, heartbeat delay/drop, KV
// checkpoint loss/corruption) run under Canary with heartbeat detection
// and the recovery watchdog, each checked against the invariant oracles
// in harness/chaos.hpp. Any violation fails the binary (exit 1) — this is
// the robustness gate CI runs in quick mode on every push.
//
// A second scenario family layers open-loop burst traffic (on/off
// arrivals through admission control and the warm-pool autoscaler) over
// the fault mix, with one node failure guaranteed inside the burst
// window, and additionally checks the traffic conservation oracle:
// every offered arrival is admitted, shed, or still queued — exactly once.
//
// A third family re-arms the base scenarios with the hedge strategy:
// speculative clones race their primaries through a gray window while a
// guaranteed node failure lands mid-race, and the hedge exactly-once
// oracle checks that every fired hedge resolves exactly once.
//
// A fourth family runs the base scenarios sharded (4 partitions x 4
// worker threads, cluster grown 4x so each partition keeps a base-sized
// slice), and all eight oracles are evaluated inside every partition
// plus on the merged scalars.
//
// A fifth family injects the partition surface: long zone bipartitions
// that fence a minority fault domain, short asymmetric windows (one-way
// heartbeat loss that must un-suspect on heal), and correlated zone
// outages racing the cuts, with fault-domain-aware placement on for half
// the seeds. Two additional oracles apply: no-split-brain (every commit
// attempted by a fenced minority-side zombie is rejected at the store's
// epoch gate) and heal-convergence (all windows healed, no reachability
// rule outlives the run, metadata liveness views agree at the end).
// Every fourth partition seed runs sharded.
//
// Writes BENCH_chaos_campaign.json (canary.bench/v2): every oracle
// violation, prefixed with its seed, lands in checks.violations, next to
// the campaign-total checks — traffic and hedge-race identities, heal
// convergence, every zombie commit rejected, and the non-vacuity checks
// (a hedge family that fired hedges, a partition family that cut zones
// and rejected stale-epoch writes).
//
// Usage: chaos_campaign [--quick] [--scenarios N] [--seed BASE]
//                       [--traffic-scenarios N] [--hedge-scenarios N]
//                       [--sharded-scenarios N] [--partition-scenarios N]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "support.hpp"

#include "common/table.hpp"
#include "harness/chaos.hpp"
#include "harness/fan_out.hpp"
#include "obs/json.hpp"

int main(int argc, char** argv) {
  using canary::harness::ChaosOutcome;

  bool quick = canary::bench::quick_mode();
  std::size_t scenarios = 0;          // 0 = derive from quick flag below
  std::size_t traffic_scenarios = 0;  // 0 = derive from quick flag below
  std::size_t hedge_scenarios = 0;    // 0 = derive from quick flag below
  std::size_t sharded_scenarios = 0;  // 0 = derive from quick flag below
  std::size_t partition_scenarios = 0;  // 0 = derive from quick flag below
  std::uint64_t base_seed = 90001;
  std::uint64_t traffic_base_seed = 70001;
  std::uint64_t hedge_base_seed = 50001;
  std::uint64_t sharded_base_seed = 30001;
  std::uint64_t partition_base_seed = 10001;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--scenarios" && i + 1 < argc) {
      scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      base_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--traffic-scenarios" && i + 1 < argc) {
      traffic_scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--hedge-scenarios" && i + 1 < argc) {
      hedge_scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--sharded-scenarios" && i + 1 < argc) {
      sharded_scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--partition-scenarios" && i + 1 < argc) {
      partition_scenarios = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: chaos_campaign [--quick] [--scenarios N] "
                   "[--seed BASE] [--traffic-scenarios N] "
                   "[--hedge-scenarios N] [--sharded-scenarios N] "
                   "[--partition-scenarios N]\n";
      return 2;
    }
  }
  if (scenarios == 0) scenarios = quick ? 24 : 240;
  if (traffic_scenarios == 0) traffic_scenarios = quick ? 12 : 120;
  if (hedge_scenarios == 0) hedge_scenarios = quick ? 12 : 120;
  if (sharded_scenarios == 0) sharded_scenarios = quick ? 8 : 64;
  if (partition_scenarios == 0) partition_scenarios = quick ? 8 : 64;

  std::cout << "chaos campaign: " << scenarios << " scenarios, base seed "
            << base_seed << " + " << traffic_scenarios
            << " traffic scenarios, base seed " << traffic_base_seed << " + "
            << hedge_scenarios << " hedge scenarios, base seed "
            << hedge_base_seed << " + " << sharded_scenarios
            << " sharded scenarios, base seed " << sharded_base_seed << " + "
            << partition_scenarios << " partition scenarios, base seed "
            << partition_base_seed << (quick ? " (quick)" : "") << "\n";

  // Seeded scenarios are independent; fan them out over every hardware
  // thread. The traffic, hedge, sharded and partition families ride in
  // the same pool, indexed past the base family.
  const std::size_t total_scenarios = scenarios + traffic_scenarios +
                                      hedge_scenarios + sharded_scenarios +
                                      partition_scenarios;
  const std::vector<ChaosOutcome> outcomes = canary::harness::fan_out(
      total_scenarios, 0, [&](std::size_t i) {
        using namespace canary::harness;
        if (i < scenarios) return run_chaos_scenario(base_seed + i);
        i -= scenarios;
        if (i < traffic_scenarios) {
          return run_traffic_chaos_scenario(traffic_base_seed + i);
        }
        i -= traffic_scenarios;
        if (i < hedge_scenarios) {
          return run_hedge_chaos_scenario(hedge_base_seed + i);
        }
        i -= hedge_scenarios;
        if (i < sharded_scenarios) {
          return run_sharded_chaos_scenario(sharded_base_seed + i);
        }
        i -= sharded_scenarios;
        // Every fourth partition seed runs sharded, so the split-brain
        // oracles also cover sharded runs.
        return i % 4 == 3
                   ? run_sharded_partition_chaos_scenario(partition_base_seed + i)
                   : run_partition_chaos_scenario(partition_base_seed + i);
      });

  // ---- aggregate --------------------------------------------------------
  std::uint64_t node_kills = 0, gray = 0, hb_dropped = 0, hb_delayed = 0;
  std::uint64_t store_dropped = 0, store_corrupted = 0;
  std::uint64_t suspicions = 0, false_suspicions = 0, stalls = 0;
  std::uint64_t traffic_offered = 0, traffic_admitted = 0;
  std::uint64_t traffic_shed = 0, traffic_completed = 0;
  std::uint64_t hedges_fired = 0, hedge_wins = 0, hedges_cancelled = 0;
  std::uint64_t partitions_started = 0, partitions_healed = 0;
  std::uint64_t zone_outages = 0, hb_partition_dropped = 0;
  std::uint64_t stale_epoch_rejects = 0, quorum_blocked = 0;
  std::uint64_t zombie_attempts = 0, zombie_rejected = 0;
  double total_failures = 0.0;
  double max_detection = 0.0;
  std::vector<std::string> violations;
  for (const ChaosOutcome& out : outcomes) {
    for (const std::string& v : out.violations) {
      violations.push_back("seed " + std::to_string(out.seed) + ": " + v);
    }
    node_kills += out.node_kills;
    gray += out.gray_windows;
    hb_dropped += out.heartbeats_dropped;
    hb_delayed += out.heartbeats_delayed;
    store_dropped += out.store_entries_dropped;
    store_corrupted += out.store_entries_corrupted;
    suspicions += out.detector_suspicions;
    false_suspicions += out.detector_false_suspicions;
    stalls += out.recovery_stalls;
    traffic_offered += out.traffic_offered;
    traffic_admitted += out.traffic_admitted;
    traffic_shed += out.traffic_shed;
    traffic_completed += out.traffic_completed;
    hedges_fired += out.hedges_fired;
    hedge_wins += out.hedge_wins;
    hedges_cancelled += out.hedges_cancelled;
    partitions_started += out.partitions_started;
    partitions_healed += out.partitions_healed;
    zone_outages += out.zone_outages;
    hb_partition_dropped += out.heartbeats_partition_dropped;
    stale_epoch_rejects += out.stale_epoch_rejects;
    quorum_blocked += out.quorum_blocked_puts;
    zombie_attempts += out.zombie_commit_attempts;
    zombie_rejected += out.zombie_commits_rejected;
    total_failures += out.failures;
    max_detection = std::max(max_detection, out.max_detection_latency_s);
  }
  const std::size_t oracle_violations = violations.size();

  // ---- campaign totals ---------------------------------------------------
  // Every scenario runs to completion, so the totals obey the same
  // identities as each run, and each family must have exercised its
  // fault surface.
  auto check = [&violations](bool ok, const std::string& what) {
    if (!ok) violations.push_back("campaign totals: " + what);
  };
  check(false_suspicions <= suspicions,
        "more false suspicions than suspicions");
  check(traffic_offered == traffic_admitted + traffic_shed,
        "offered " + std::to_string(traffic_offered) + " != admitted " +
            std::to_string(traffic_admitted) + " + shed " +
            std::to_string(traffic_shed));
  check(traffic_completed <= traffic_admitted,
        "completed exceeds admitted arrivals");
  check(hedges_fired == hedge_wins + hedges_cancelled,
        "hedges fired " + std::to_string(hedges_fired) + " != wins " +
            std::to_string(hedge_wins) + " + cancelled " +
            std::to_string(hedges_cancelled));
  check(hedge_scenarios == 0 || hedges_fired > 0,
        "hedge scenarios ran but no hedge ever fired");
  check(partitions_healed == partitions_started,
        std::to_string(partitions_started) + " partition(s) started but " +
            std::to_string(partitions_healed) + " healed");
  check(zombie_attempts == zombie_rejected,
        std::to_string(zombie_attempts) + " zombie commit attempt(s) != " +
            std::to_string(zombie_rejected) +
            " rejected: a fenced commit reached the store");
  check(partition_scenarios == 0 || partitions_started > 0,
        "partition scenarios ran but no window ever started");
  // At the quick campaign size and above, the zone cuts reliably fence
  // minority-side writers mid-commit; zero rejects means the epoch gate
  // is not being exercised.
  check(partition_scenarios < 8 || stale_epoch_rejects > 0,
        "no stale-epoch write was ever rejected");

  canary::TextTable table({"metric", "total"});
  table.add_row({"scenarios", std::to_string(scenarios)});
  table.add_row({"traffic scenarios", std::to_string(traffic_scenarios)});
  table.add_row({"hedge scenarios", std::to_string(hedge_scenarios)});
  table.add_row({"sharded scenarios", std::to_string(sharded_scenarios)});
  table.add_row({"partition scenarios", std::to_string(partition_scenarios)});
  table.add_row({"function failures", canary::TextTable::num(total_failures, 0)});
  table.add_row({"node kills", std::to_string(node_kills)});
  table.add_row({"gray windows", std::to_string(gray)});
  table.add_row({"heartbeats dropped", std::to_string(hb_dropped)});
  table.add_row({"heartbeats delayed", std::to_string(hb_delayed)});
  table.add_row({"checkpoints destroyed", std::to_string(store_dropped)});
  table.add_row({"checkpoints corrupted", std::to_string(store_corrupted)});
  table.add_row({"worker suspicions", std::to_string(suspicions)});
  table.add_row({"false suspicions", std::to_string(false_suspicions)});
  table.add_row({"recovery stalls", std::to_string(stalls)});
  table.add_row({"max detection latency [s]",
                 canary::TextTable::num(max_detection, 3)});
  table.add_row({"arrivals offered", std::to_string(traffic_offered)});
  table.add_row({"arrivals shed", std::to_string(traffic_shed)});
  table.add_row({"hedges fired", std::to_string(hedges_fired)});
  table.add_row({"hedge wins", std::to_string(hedge_wins)});
  table.add_row({"partitions started", std::to_string(partitions_started)});
  table.add_row({"partitions healed", std::to_string(partitions_healed)});
  table.add_row({"zone outages", std::to_string(zone_outages)});
  table.add_row({"stale-epoch rejects", std::to_string(stale_epoch_rejects)});
  table.add_row({"zombie commit attempts", std::to_string(zombie_attempts)});
  table.add_row({"oracle violations", std::to_string(oracle_violations)});
  table.print(std::cout);

  using canary::obs::JsonWriter;
  const bool written = canary::bench::write_bench_report(
      "chaos_campaign", quick, violations, {},
      [&](JsonWriter& json) {
        json.field("scenarios", scenarios);
        json.field("base_seed", base_seed);
        json.field("traffic_scenarios", traffic_scenarios);
        json.field("traffic_base_seed", traffic_base_seed);
        json.field("hedge_scenarios", hedge_scenarios);
        json.field("hedge_base_seed", hedge_base_seed);
        json.field("sharded_scenarios", sharded_scenarios);
        json.field("sharded_base_seed", sharded_base_seed);
        json.field("partition_scenarios", partition_scenarios);
        json.field("partition_base_seed", partition_base_seed);
      },
      [&](JsonWriter& json) {
        json.key("fault_totals").begin_object();
        json.field("function_failures", total_failures);
        json.field("node_kills", node_kills);
        json.field("gray_windows", gray);
        json.field("heartbeats_dropped", hb_dropped);
        json.field("heartbeats_delayed", hb_delayed);
        json.field("store_entries_dropped", store_dropped);
        json.field("store_entries_corrupted", store_corrupted);
        json.end_object();
        json.key("detection").begin_object();
        json.field("suspicions", suspicions);
        json.field("false_suspicions", false_suspicions);
        json.field("recovery_stalls", stalls);
        json.field("max_latency_s", max_detection);
        json.end_object();
        json.key("traffic_totals").begin_object();
        json.field("offered", traffic_offered);
        json.field("admitted", traffic_admitted);
        json.field("shed", traffic_shed);
        json.field("completed", traffic_completed);
        json.end_object();
        json.key("hedge_totals").begin_object();
        json.field("fired", hedges_fired);
        json.field("wins", hedge_wins);
        json.field("cancelled", hedges_cancelled);
        json.end_object();
        json.key("partition_totals").begin_object();
        json.field("partitions_started", partitions_started);
        json.field("partitions_healed", partitions_healed);
        json.field("zone_outages", zone_outages);
        json.field("heartbeats_partition_dropped", hb_partition_dropped);
        json.field("stale_epoch_rejects", stale_epoch_rejects);
        json.field("quorum_blocked_puts", quorum_blocked);
        json.field("zombie_commit_attempts", zombie_attempts);
        json.field("zombie_commits_rejected", zombie_rejected);
        json.end_object();
        json.key("oracles").begin_array();
        for (const char* oracle :
             {"completion", "exactly_once", "no_corrupt_restore",
              "detection_bound", "ledger_balance", "no_stranded_failures",
              "conservation", "hedge_exactly_once", "no_split_brain",
              "heal_convergence"}) {
          json.value(oracle);
        }
        json.end_array();
      });
  if (!written) return 1;
  if (!violations.empty()) {
    return canary::bench::fail("chaos campaign", violations);
  }
  std::cout << "\nchaos campaign passed: " << total_scenarios
            << " scenarios, zero oracle violations\n";
  return 0;
}

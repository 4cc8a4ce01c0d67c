// Chaos campaign: a failure-injection matrix of seeded multi-fault
// scenarios, each checked against the ten invariant oracles in
// harness/chaos.hpp. Any violation fails the binary (exit 1) — this is
// the robustness gate CI runs in quick mode on every push.
//
// Every row of the cell table below is one ChaosSpec — the strategy under
// test (Canary, retry, request replication, active-standby, hedged) and
// the overlays on the base fault mix (open-loop traffic, stragglers,
// partition storms, sharding, a scaled shape) — run over a contiguous
// range of seeds. A new cell is one new row.
//
// Writes BENCH_chaos_campaign.json (canary.bench/v2): every oracle
// violation, prefixed with its cell and seed, lands in checks.violations,
// next to the campaign-total checks — traffic and hedge-race identities,
// heal convergence, every zombie commit rejected, and the non-vacuity
// checks (hedged runs that fired hedges, traffic runs that offered and
// completed arrivals and suspected a worker, partition runs that cut
// zones, dropped heartbeats and rejected stale-epoch writes). The
// payload lists every cell with its seed range and violation count, and
// the sum of every kChaosTotals entry.
//
// Usage: chaos_campaign [--quick] [--seeds N]
//   --quick    each cell's quick seed count (the CI smoke run)
//   --seeds N  N seeds for every cell (the nightly sweep runs 2000)
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

namespace {

using canary::harness::ChaosSpec;
using Kind = canary::recovery::StrategyKind;

struct Cell {
  const char* name;
  ChaosSpec spec;
  std::uint64_t first_seed;
  std::size_t quick;  // seeds in quick mode
  std::size_t full;   // seeds at full depth
};

// The five strategies share each shape's first seed, so a seed draws the
// same faults under every strategy.
constexpr Cell kCells[] = {
    {"base/canary", {}, 90001, 24, 240},
    {"base/retry", {.strategy = Kind::kRetry}, 90001, 4, 64},
    {"base/rr", {.strategy = Kind::kRequestReplication}, 90001, 4, 64},
    {"base/as", {.strategy = Kind::kActiveStandby}, 90001, 4, 64},
    {"base/hedge", {.strategy = Kind::kHedge}, 90001, 4, 64},
    {"traffic/canary", {.traffic = true}, 70001, 12, 120},
    {"traffic/retry", {.strategy = Kind::kRetry, .traffic = true}, 70001, 4,
     64},
    {"traffic/rr", {.strategy = Kind::kRequestReplication, .traffic = true},
     70001, 4, 64},
    {"traffic/as", {.strategy = Kind::kActiveStandby, .traffic = true}, 70001,
     4, 64},
    {"traffic/hedge", {.strategy = Kind::kHedge, .traffic = true}, 70001, 4,
     64},
    {"stragglers/hedge", {.strategy = Kind::kHedge, .stragglers = true}, 50001,
     12, 120},
    {"partition/canary", {.partition = true}, 10001, 8, 64},
    {"traffic+partition/canary", {.traffic = true, .partition = true}, 60001,
     4, 64},
    {"traffic+partition/retry",
     {.strategy = Kind::kRetry, .traffic = true, .partition = true}, 60001, 4,
     64},
    {"traffic+partition/rr",
     {.strategy = Kind::kRequestReplication, .traffic = true,
      .partition = true},
     60001, 4, 64},
    {"traffic+partition/as",
     {.strategy = Kind::kActiveStandby, .traffic = true, .partition = true},
     60001, 4, 64},
    {"traffic+partition/hedge",
     {.strategy = Kind::kHedge, .traffic = true, .partition = true}, 60001, 4,
     64},
    {"traffic+stragglers/canary", {.traffic = true, .stragglers = true},
     40001, 4, 64},
    {"traffic+stragglers/retry",
     {.strategy = Kind::kRetry, .traffic = true, .stragglers = true}, 40001,
     4, 64},
    {"traffic+stragglers/rr",
     {.strategy = Kind::kRequestReplication, .traffic = true,
      .stragglers = true},
     40001, 4, 64},
    {"traffic+stragglers/as",
     {.strategy = Kind::kActiveStandby, .traffic = true, .stragglers = true},
     40001, 4, 64},
    {"traffic+stragglers/hedge",
     {.strategy = Kind::kHedge, .traffic = true, .stragglers = true}, 40001,
     4, 64},
    {"stragglers+partition/canary", {.stragglers = true, .partition = true},
     20001, 4, 64},
    {"stragglers+partition/retry",
     {.strategy = Kind::kRetry, .stragglers = true, .partition = true}, 20001,
     4, 64},
    {"stragglers+partition/rr",
     {.strategy = Kind::kRequestReplication, .stragglers = true,
      .partition = true},
     20001, 4, 64},
    {"stragglers+partition/as",
     {.strategy = Kind::kActiveStandby, .stragglers = true, .partition = true},
     20001, 4, 64},
    {"stragglers+partition/hedge",
     {.strategy = Kind::kHedge, .stragglers = true, .partition = true}, 20001,
     4, 64},
    // Sharded: 4 partitions on 4 worker threads, every oracle evaluated
    // inside each partition plus on the merged scalars.
    {"base/canary x4", {.partitions = 4}, 30001, 8, 64},
    {"partition/canary x4", {.partition = true, .partitions = 4}, 10001, 2,
     16},
    // 8x the jobs on 4x the nodes.
    {"scaled/canary", {.scaled = true}, 80001, 2, 16},
};

}  // namespace

int main(int argc, char** argv) {
  using canary::harness::ChaosOutcome;
  using canary::harness::kChaosTotals;

  bool quick = canary::bench::quick_mode();
  std::size_t seeds = 0;  // 0 = each cell's quick or full count
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--seeds" && i + 1 < argc) {
      seeds = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: chaos_campaign [--quick] [--seeds N]\n";
      return 2;
    }
  }

  // One task per (cell, seed); outcomes come back in task order.
  struct Task {
    std::size_t cell;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  std::vector<std::size_t> cell_seeds;
  std::size_t hedged_runs = 0, partition_runs = 0, traffic_runs = 0;
  for (std::size_t c = 0; c < std::size(kCells); ++c) {
    const Cell& cell = kCells[c];
    const std::size_t count =
        seeds > 0 ? seeds : (quick ? cell.quick : cell.full);
    for (std::size_t i = 0; i < count; ++i) {
      tasks.push_back({c, cell.first_seed + i});
    }
    cell_seeds.push_back(count);
    if (cell.spec.strategy == Kind::kHedge) hedged_runs += count;
    if (cell.spec.partition) partition_runs += count;
    if (cell.spec.traffic) traffic_runs += count;
  }
  std::cout << "chaos campaign: " << std::size(kCells) << " cells, "
            << tasks.size() << " scenarios" << (quick ? " (quick)" : "")
            << "\n";
  const std::vector<ChaosOutcome> outcomes = canary::harness::fan_out(
      tasks.size(), 0, [&tasks](std::size_t i) {
        return canary::harness::run_chaos_scenario(kCells[tasks[i].cell].spec,
                                                   tasks[i].seed);
      });

  // ---- aggregate --------------------------------------------------------
  ChaosOutcome sum;
  std::vector<std::string> violations;
  std::vector<std::size_t> cell_violations(std::size(kCells));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ChaosOutcome& out = outcomes[i];
    cell_violations[tasks[i].cell] += out.violations.size();
    for (const std::string& v : out.violations) {
      violations.push_back(std::string(kCells[tasks[i].cell].name) +
                           " seed " + std::to_string(out.seed) + ": " + v);
    }
    for (std::size_t t = 0; t < sum.totals.size(); ++t) {
      sum.totals[t] += out.totals[t];
    }
    sum.max_detection_latency_s =
        std::max(sum.max_detection_latency_s, out.max_detection_latency_s);
  }
  const std::size_t oracle_violations = violations.size();

  // ---- campaign totals ---------------------------------------------------
  // Every scenario runs to completion, so the totals obey the same
  // identities as each run, and each overlay must have exercised its
  // fault surface.
  auto check = [&violations](bool ok, const std::string& what) {
    if (!ok) violations.push_back("campaign totals: " + what);
  };
  const auto total = [&sum](const char* key) {
    return static_cast<std::uint64_t>(sum.total(key));
  };
  check(total("detector_false_suspicions") <= total("detector_suspicions"),
        "more false suspicions than suspicions");
  check(total("traffic_offered") ==
            total("traffic_admitted") + total("traffic_shed"),
        "offered " + std::to_string(total("traffic_offered")) +
            " != admitted " + std::to_string(total("traffic_admitted")) +
            " + shed " + std::to_string(total("traffic_shed")));
  check(total("traffic_completed") <= total("traffic_admitted"),
        "completed exceeds admitted arrivals");
  check(total("hedges_fired") ==
            total("hedge_wins") + total("hedges_cancelled"),
        "hedges fired " + std::to_string(total("hedges_fired")) +
            " != wins " + std::to_string(total("hedge_wins")) +
            " + cancelled " + std::to_string(total("hedges_cancelled")));
  check(hedged_runs == 0 || total("hedges_fired") > 0,
        "hedged runs ran but no hedge ever fired");
  // A registry read of a misspelled name is zero, and zero passes every
  // identity above; these catch a total that silently reads nothing.
  // Every traffic run kills a node under heartbeat detection.
  check(traffic_runs == 0 || total("traffic_offered") > 0,
        "traffic runs ran but no arrival was ever offered");
  check(traffic_runs == 0 || total("traffic_completed") > 0,
        "traffic runs ran but no arrival ever completed");
  check(traffic_runs == 0 || total("detector_suspicions") > 0,
        "traffic runs ran but no worker was ever suspected");
  check(total("partitions_healed") == total("partitions_started"),
        std::to_string(total("partitions_started")) +
            " partition(s) started but " +
            std::to_string(total("partitions_healed")) + " healed");
  check(total("zombie_commit_attempts") == total("zombie_commits_rejected"),
        std::to_string(total("zombie_commit_attempts")) +
            " zombie commit attempt(s) != " +
            std::to_string(total("zombie_commits_rejected")) +
            " rejected: a fenced commit reached the store");
  check(partition_runs == 0 || total("partitions_started") > 0,
        "partition runs ran but no window ever started");
  check(partition_runs == 0 || total("heartbeats_partition_dropped") > 0,
        "partition runs ran but no heartbeat was ever cut off");
  // From eight partition runs on, the zone cuts reliably fence
  // minority-side writers mid-commit; zero rejects means the epoch gate
  // is not being exercised.
  check(partition_runs < 8 || total("stale_epoch_rejects") > 0,
        "no stale-epoch write was ever rejected");

  canary::TextTable cells({"cell", "first seed", "seeds", "violations"});
  for (std::size_t c = 0; c < std::size(kCells); ++c) {
    cells.add_row({kCells[c].name, std::to_string(kCells[c].first_seed),
                   std::to_string(cell_seeds[c]),
                   std::to_string(cell_violations[c])});
  }
  cells.print(std::cout);
  canary::TextTable table({"total", "sum"});
  for (std::size_t t = 0; t < sum.totals.size(); ++t) {
    table.add_row(
        {kChaosTotals[t].key, canary::TextTable::num(sum.totals[t], 0)});
  }
  table.add_row({"max_detection_latency_s",
                 canary::TextTable::num(sum.max_detection_latency_s, 3)});
  table.add_row({"oracle_violations", std::to_string(oracle_violations)});
  table.print(std::cout);

  using canary::obs::JsonWriter;
  const bool written = canary::bench::write_bench_report(
      "chaos_campaign", quick, violations, {},
      [&](JsonWriter& json) {
        json.field("seeds_per_cell", seeds);
        json.field("scenarios", tasks.size());
      },
      [&](JsonWriter& json) {
        json.key("cells").begin_array();
        for (std::size_t c = 0; c < std::size(kCells); ++c) {
          json.begin_object();
          json.field("name", kCells[c].name);
          json.field("first_seed", kCells[c].first_seed);
          json.field("seeds", cell_seeds[c]);
          json.field("violations", cell_violations[c]);
          json.end_object();
        }
        json.end_array();
        json.key("totals").begin_object();
        for (std::size_t t = 0; t < sum.totals.size(); ++t) {
          json.field(kChaosTotals[t].key, sum.totals[t]);
        }
        json.end_object();
        json.field("max_detection_latency_s", sum.max_detection_latency_s);
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
  std::cout << "\nchaos campaign passed: " << tasks.size()
            << " scenarios, zero oracle violations\n";
  return 0;
}

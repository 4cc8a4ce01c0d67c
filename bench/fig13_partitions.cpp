// Figure 13 (extension): network partitions, correlated fault-domain
// outages, and split-brain-safe fencing.
//
// A 12-node / 3-zone cluster runs a fixed batch workload under the full
// Canary strategy with heartbeat detection while the partition surface
// fires: a correlated zone outage (every node of one fault domain dies as
// one causal event), a zone bipartition (one domain is cut off, its
// workers logically fenced as minority-side zombies), and the two
// combined (the outage lands inside the cut, on already-fenced nodes).
//
// Each configuration compares two placement policies over the same
// workload and fault schedule:
//
//   domain_blind — the default placement: replicas, checkpoint KV-shard
//                  owners, and recovery re-dispatch ignore zones;
//   domain_aware — fault-domain spreading on: replicas and checkpoint
//                  owners avoid the primary's zone, recovery re-dispatch
//                  avoids the failed zone.
//
// Reported per strategy: recovery time, makespan, and the
// double-execution-attempt count — commits attempted by fenced zombies
// while the majority side re-executes the same invocation. Every run is
// checked against the chaos oracles: among them, every such attempt must
// be rejected at the store's epoch gate (split-brain safety) and every
// partition window must heal. Domain-aware placement must strictly reduce
// correlated-loss recovery time in at least one configuration.
//
// Writes BENCH_fig13_partitions.json (canary.bench/v2; each
// configuration's domain-aware recovery and makespan are gated against
// bench/BENCH_partition.baseline.json). The report is byte-identical
// across repeated runs and across worker counts (--shard-workers N runs
// the scenario sharded into 4 partitions on N worker threads; the worker
// count is deliberately kept out of the report so the bytes can be
// compared). Violations exit 1.
//
// Usage: fig13_partitions [--quick] [--shard-workers N]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "support.hpp"

#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "obs/json.hpp"
#include "recovery/strategies.hpp"

namespace {

using canary::Bytes;
using canary::Duration;
using canary::TextTable;
using canary::harness::RunResult;
using canary::harness::ScenarioConfig;
using canary::harness::ScenarioRunner;

std::string num(double v) { return TextTable::num(v, 4); }

constexpr std::uint64_t kSeed = 20260808;
constexpr std::size_t kNodes = 12;  // zones {0, 1, 2}, four nodes each
constexpr std::uint32_t kFaultZone = 2;

/// The three partition-surface configurations. The fault schedule is
/// identical for both placement policies within a configuration.
struct Variant {
  const char* name;
  bool outage;     // correlated kill of kFaultZone
  bool cut;        // zone bipartition of kFaultZone
};

constexpr Variant kVariants[] = {
    {"zone_outage", true, false},
    {"zone_cut", false, true},
    {"cut_then_outage", true, true},
};

/// Long-running functions so the fault window lands mid-execution on
/// every variant: ~3.8 s of state work per function, 30 functions over
/// 12 nodes. `copies` scales the job list for sharded execution — jobs
/// are dealt round-robin over the partitions, so 4 copies give each of
/// the 4 slices the same 30-function load the monolithic cluster sees.
std::vector<canary::faas::JobSpec> make_jobs(int copies) {
  std::vector<canary::faas::JobSpec> jobs;
  canary::faas::StateSpec state;
  state.duration = Duration::msec(900);
  state.checkpoint_payload = Bytes::of(1024 * 1024);
  const canary::faas::StateTable states(4, state);
  for (int j = 0; j < 3 * copies; ++j) {
    canary::faas::JobSpec job;
    job.name = "fig13-job-" + std::to_string(j);
    job.account = canary::AccountId{1};
    for (int f = 0; f < 10; ++f) {
      canary::faas::FunctionSpec fn;
      fn.name = "fig13-fn-" + std::to_string(j) + "-" + std::to_string(f);
      fn.runtime = canary::faas::RuntimeImage::kPython3;
      fn.states = states;
      fn.finalize = Duration::msec(200);
      job.functions.push_back(std::move(fn));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

ScenarioConfig variant_config(const Variant& variant, bool spread,
                              unsigned shard_workers, std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.cluster_nodes = kNodes;
  config.error_rate = 0.0;  // faults come from the partition surface alone
  config.strategy = canary::recovery::StrategyConfig::canary_full();
  config.detection.enabled = true;
  config.detection.heartbeat_interval = Duration::msec(250);
  config.detection.timeout_multiplier = 2.0;
  config.detection.confirm_multiplier = 1.0;
  config.detection.sweep_interval = Duration::msec(100);
  config.detection.horizon = Duration::sec(600.0);
  // Partitioned KV with one backup: checkpoint survival depends on where
  // the owners live, which is exactly what domain-aware spreading moves.
  config.kv.mode = canary::kv::CacheMode::kPartitioned;
  config.kv.backups = 1;
  config.fault_domain_spread = spread;

  if (variant.cut) {
    // Cut the fault zone off mid-execution, long enough that the
    // majority confirms-and-redeploys (confirm threshold ~1.2 s) while
    // the fenced minority keeps executing into its commit attempts.
    ScenarioConfig::PartitionFault window;
    window.at = Duration::sec(1.0);
    window.duration = Duration::sec(5.0);
    window.zone = kFaultZone;
    config.partitions.push_back(window);
  }
  if (variant.outage) {
    // With the cut active the outage kills already-fenced nodes (the
    // injector counts them as skipped, not as second deaths); alone it
    // is the pure correlated-loss case.
    ScenarioConfig::ZoneOutage outage;
    outage.at = Duration::sec(variant.cut ? 3.0 : 1.5);
    outage.zone = kFaultZone;
    config.zone_outages.push_back(outage);
  }

  if (shard_workers > 0) {
    // Sharded execution for the worker-count byte-identity check: the
    // partition count fixes the model (4 slices, each a full 12-node /
    // 3-zone replica of the monolithic cluster); the worker count must
    // not change a single output byte.
    config.sharding.partitions = 4;
    config.sharding.workers = shard_workers;
    config.cluster_nodes = kNodes * 4;
  }
  return config;
}

/// One placement policy's aggregate over the repetition sweep.
struct StrategyResult {
  std::string name;
  double recovery_s = 0.0;
  double makespan_s = 0.0;
  std::uint64_t double_execution_attempts = 0;  // zombie commit attempts
  std::uint64_t zombie_commits_rejected = 0;
  std::uint64_t zombie_commits_committed = 0;
  std::uint64_t stale_epoch_rejects = 0;
  std::uint64_t quorum_blocked_puts = 0;
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t zone_outages = 0;
  bool completed = true;
};

/// Runs one placement policy's repetitions, checking each run against the
/// chaos oracles.
StrategyResult run_strategy(const Variant& variant, bool spread,
                            unsigned shard_workers, int reps,
                            std::vector<std::string>& violations) {
  StrategyResult out;
  out.name = spread ? "domain_aware" : "domain_blind";
  const std::vector<canary::faas::JobSpec> jobs =
      make_jobs(shard_workers > 0 ? 4 : 1);
  for (int rep = 0; rep < reps; ++rep) {
    const ScenarioConfig config =
        variant_config(variant, spread, shard_workers,
                       kSeed + static_cast<std::uint64_t>(rep));
    const RunResult result = ScenarioRunner::run(config, jobs);
    canary::bench::check_oracles(std::string(variant.name) + "/" + out.name +
                                     " rep " + std::to_string(rep),
                                 config, result, violations);
    out.recovery_s += result.total_recovery_s;
    out.makespan_s += result.makespan_s;
    auto counter = [&result](const char* name) {
      return static_cast<std::uint64_t>(result.metrics.counter(name));
    };
    out.double_execution_attempts += counter("zombie_commit_attempts");
    out.zombie_commits_rejected += counter("zombie_commits_rejected");
    out.zombie_commits_committed += counter("zombie_commits_committed");
    out.stale_epoch_rejects += result.kv_stale_epoch_rejects;
    out.quorum_blocked_puts += result.kv_quorum_blocked_puts;
    out.partitions_started += result.injected.partitions_started;
    out.partitions_healed += result.injected.partitions_healed;
    out.zone_outages += result.injected.zone_outages;
    out.completed = out.completed && result.completed;
  }
  return out;
}

void write_strategy(canary::obs::JsonWriter& json, const StrategyResult& s) {
  json.begin_object();
  json.field("name", s.name);
  json.field("recovery_s", s.recovery_s);
  json.field("makespan_s", s.makespan_s);
  json.field("double_execution_attempts", s.double_execution_attempts);
  json.field("zombie_commits_rejected", s.zombie_commits_rejected);
  json.field("zombie_commits_committed", s.zombie_commits_committed);
  json.field("stale_epoch_rejects", s.stale_epoch_rejects);
  json.field("quorum_blocked_puts", s.quorum_blocked_puts);
  json.field("partitions_started", s.partitions_started);
  json.field("partitions_healed", s.partitions_healed);
  json.field("zone_outages", s.zone_outages);
  json.field("completed", s.completed);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = canary::bench::quick_mode();
  unsigned shard_workers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--shard-workers" && i + 1 < argc) {
      shard_workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: fig13_partitions [--quick] [--shard-workers N]\n";
      return 2;
    }
  }

  const int reps = quick ? 2 : 3;
  std::cout << "partition surface: " << kNodes << " nodes / 3 zones, 30 "
               "functions, zone outage + bipartition + combined, "
            << reps << " reps"
            << (shard_workers > 0 ? " (sharded)" : "")
            << (quick ? " (quick)" : "") << "\n\n";

  struct VariantResult {
    const Variant* variant;
    StrategyResult blind;
    StrategyResult aware;
    double reduction_pct = 0.0;
  };
  std::vector<std::string> violations;
  std::vector<VariantResult> results;
  for (const Variant& variant : kVariants) {
    VariantResult vr;
    vr.variant = &variant;
    vr.blind = run_strategy(variant, false, shard_workers, reps, violations);
    vr.aware = run_strategy(variant, true, shard_workers, reps, violations);
    vr.reduction_pct =
        vr.blind.recovery_s > 0.0
            ? 100.0 * (vr.blind.recovery_s - vr.aware.recovery_s) /
                  vr.blind.recovery_s
            : 0.0;
    results.push_back(std::move(vr));
  }

  TextTable table({"configuration", "blind rec [s]", "aware rec [s]",
                   "reduction %", "double-exec", "rejected"});
  for (const VariantResult& vr : results) {
    table.add_row({vr.variant->name, num(vr.blind.recovery_s),
                   num(vr.aware.recovery_s), num(vr.reduction_pct),
                   std::to_string(vr.blind.double_execution_attempts +
                                  vr.aware.double_execution_attempts),
                   std::to_string(vr.blind.zombie_commits_rejected +
                                  vr.aware.zombie_commits_rejected)});
  }
  table.print(std::cout);

  // ---- self-checks (on top of every run's chaos oracles) ----------------
  int strictly_faster = 0;
  double max_reduction = 0.0;
  std::uint64_t attempts_total = 0, committed_total = 0;
  for (const VariantResult& vr : results) {
    for (const StrategyResult* s : {&vr.blind, &vr.aware}) {
      attempts_total += s->double_execution_attempts;
      committed_total += s->zombie_commits_committed;
    }
    if (vr.aware.recovery_s < vr.blind.recovery_s) ++strictly_faster;
    max_reduction = std::max(max_reduction, vr.reduction_pct);
  }
  if (strictly_faster == 0) {
    violations.push_back(
        "domain-aware placement did not strictly reduce recovery time in "
        "any configuration");
  }
  if (attempts_total == 0) {
    violations.push_back(
        "no double-execution attempt was ever made: the zombie probe is "
        "not firing");
  }

  std::cout << "\ndomain-aware strictly faster in " << strictly_faster << "/"
            << results.size() << " configurations; max recovery reduction "
            << num(max_reduction) << "%; " << attempts_total
            << " double-execution attempt(s), " << committed_total
            << " committed\n";

  std::vector<canary::bench::Gated> gated;
  for (const VariantResult& vr : results) {
    const std::string prefix = std::string(vr.variant->name) + ".domain_aware.";
    gated.push_back({prefix + "recovery_s", vr.aware.recovery_s, true});
    gated.push_back({prefix + "makespan_s", vr.aware.makespan_s, true});
  }

  using canary::obs::JsonWriter;
  const bool written = canary::bench::write_bench_report(
      "fig13_partitions", quick, violations, gated,
      [&](JsonWriter& json) {
        json.field("nodes", static_cast<std::uint64_t>(kNodes));
        json.field("zones", 3);
        json.field("fault_zone", static_cast<std::uint64_t>(kFaultZone));
        json.field("repetitions", reps);
        json.field("seed", kSeed);
      },
      [&](JsonWriter& json) {
        json.key("configurations").begin_array();
        for (const VariantResult& vr : results) {
          json.begin_object();
          json.field("name", vr.variant->name);
          json.key("strategies").begin_array();
          write_strategy(json, vr.blind);
          write_strategy(json, vr.aware);
          json.end_array();
          json.field("recovery_reduction_pct", vr.reduction_pct);
          json.end_object();
        }
        json.end_array();
        json.key("claims").begin_object();
        json.field("aware_strictly_faster_configs", strictly_faster);
        json.field("max_recovery_reduction_pct", max_reduction);
        json.field("double_execution_attempts", attempts_total);
        json.field("zombie_commits_committed", committed_total);
        json.end_object();
      });
  if (!written) return 1;
  if (!violations.empty()) {
    return canary::bench::fail("fig13 partitions", violations);
  }
  std::cout << "\nfig13 partitions passed: split-brain-safe fencing held and "
               "domain-aware placement cut correlated-loss recovery\n";
  return 0;
}

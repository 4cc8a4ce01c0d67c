// Real-vs-simulated recovery validation (the calibration bench).
//
// Runs the three miniature kernels (BFS, compression, census) on the
// real-execution backend — forked worker processes SIGKILLed
// mid-execution, heartbeat detection, epoch-fenced KV commits — then
// configures the simulator twin from the measured step times /
// checkpoint sizes / kill offsets and replays the same fail/recover
// scenario in simulated time. Writes BENCH_realexec.json
// (canary.bench/v2) with the per-component (detection / scheduling /
// launch / init / restore / re-exec) recovery deltas;
// tools/check_report.py --calibrate gates the real/sim ratios against
// the committed tolerance band in bench/BENCH_realexec.baseline.json.
//
// Self-checks (exit 1): every scenario completes with the reference
// checksum, kills >= 1 real worker and recovers it in a second worker
// process, exactly-once holds (no unfenced stale commits, no
// duplicates), restores only use intact checkpoints, and each
// substrate's obs::kRecoveryComponents sum to its measured recovery
// window.
//
// Usage: realexec_validate [--quick]
// Environment: CANARY_QUICK=1 (same as --quick), CANARY_REPORT_DIR.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "support.hpp"

#include "common/table.hpp"
#include "harness/calibration.hpp"
#include "obs/json.hpp"
#include "realexec/backend.hpp"

using namespace canary;

namespace {

struct Case {
  realexec::KernelKind kernel;
  realexec::RecoveryPolicy policy;
  std::uint64_t size_param;
  std::uint32_t steps;
  std::uint32_t kill_after_step;
  std::uint32_t kills;
};

struct CaseResult {
  Case scenario;
  realexec::RealScenarioResult real;
  harness::CalibrationTwinResult sim;
};

recovery::StrategyConfig strategy_for(realexec::RecoveryPolicy policy) {
  switch (policy) {
    case realexec::RecoveryPolicy::kRetry:
      return recovery::StrategyConfig::retry();
    case realexec::RecoveryPolicy::kCheckpointRestore:
      return recovery::StrategyConfig::canary_checkpoint_only();
    case realexec::RecoveryPolicy::kWarmSpare:
      return recovery::StrategyConfig::active_standby();
  }
  return recovery::StrategyConfig::retry();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "usage: realexec_validate [--quick]\n";
      return 2;
    }
  }

  const Duration heartbeat = Duration::msec(40);
  const double timeout_multiplier = 4.0;

  std::vector<Case> cases;
  if (quick) {
    cases = {
        {realexec::KernelKind::kGraphBfs,
         realexec::RecoveryPolicy::kCheckpointRestore, 4u << 20, 6, 2, 1},
        {realexec::KernelKind::kCompression,
         realexec::RecoveryPolicy::kCheckpointRestore, 3u << 20, 6, 2, 1},
        {realexec::KernelKind::kCensus,
         realexec::RecoveryPolicy::kCheckpointRestore, 200'000, 6, 2, 1},
    };
  } else {
    cases = {
        {realexec::KernelKind::kGraphBfs,
         realexec::RecoveryPolicy::kCheckpointRestore, 8u << 20, 8, 2, 1},
        {realexec::KernelKind::kCompression,
         realexec::RecoveryPolicy::kCheckpointRestore, 4u << 20, 8, 2, 1},
        {realexec::KernelKind::kCensus,
         realexec::RecoveryPolicy::kCheckpointRestore, 300'000, 8, 2, 1},
        {realexec::KernelKind::kGraphBfs, realexec::RecoveryPolicy::kRetry,
         8u << 20, 8, 2, 1},
        {realexec::KernelKind::kCompression, realexec::RecoveryPolicy::kRetry,
         4u << 20, 8, 2, 1},
        {realexec::KernelKind::kCensus, realexec::RecoveryPolicy::kRetry,
         300'000, 8, 2, 1},
        {realexec::KernelKind::kGraphBfs,
         realexec::RecoveryPolicy::kWarmSpare, 8u << 20, 8, 2, 1},
    };
  }

  std::cout << "\n=== realexec_validate: real vs simulated recovery ===\n"
            << "setup: forked workers, SIGKILL mid-execution, heartbeat "
            << heartbeat.to_msec() << "ms x" << timeout_multiplier
            << (quick ? " (quick)" : "") << "\n\n";

  std::vector<CaseResult> results;
  std::vector<std::string> violations;
  realexec::ControllerConfig base;
  // Mid-BFS checkpoints carry the whole frontier (up to n/2 vertices on
  // a binary tree) plus the visited bitmap — far beyond the store's
  // default 4MiB entry cap, so widen it for the validation workloads.
  base.kv.max_entry_size = Bytes::mib(64);
  realexec::RealBackend backend(base);

  for (const Case& c : cases) {
    realexec::RealScenarioConfig rc;
    rc.kernel = c.kernel;
    rc.seed = 7;
    rc.size_param = c.size_param;
    rc.steps_total = c.steps;
    rc.policy = c.policy;
    rc.kill_after_commit_step = c.kill_after_step;
    rc.kills = c.kills;
    rc.heartbeat_interval = heartbeat;
    rc.timeout_multiplier = timeout_multiplier;

    const std::string label = std::string(realexec::to_string(c.kernel)) +
                              "/" + realexec::to_string(c.policy);
    std::cerr << "[realexec] " << label << ": real run..." << std::endl;

    CaseResult cr;
    cr.scenario = c;
    cr.real = backend.run(rc);
    for (const auto& v : cr.real.violations) {
      violations.push_back(label + ": " + v);
    }
    if (cr.real.stats.sigkills_sent < 1) {
      violations.push_back(label + ": no real worker process was killed");
    }
    if (cr.real.recoveries < 1) {
      violations.push_back(label + ": no recovery was measured");
    }
    if (cr.real.stats.workers_spawned < 2) {
      violations.push_back(label +
                           ": a recovery implies at least two worker "
                           "processes");
    }

    // Configure the twin from what the real run measured.
    harness::CalibrationWorkload twin;
    twin.name = realexec::to_string(c.kernel);
    twin.steps = c.steps;
    twin.step_exec = Duration::usec(static_cast<std::int64_t>(
        std::max(cr.real.first_step_exec_s, 1e-4) * 1e6));
    twin.checkpoint_bytes = Bytes::of(cr.real.checkpoint_bytes);
    twin.kill_after_step = c.kill_after_step;
    twin.strategy = strategy_for(c.policy);
    twin.heartbeat_interval = heartbeat;
    twin.timeout_multiplier = timeout_multiplier;
    twin.repetitions = quick ? 3 : 5;
    std::cerr << "[realexec] " << label << ": sim twin..." << std::endl;
    cr.sim = harness::run_calibration_twin(twin);
    if (cr.sim.recoveries == 0) {
      violations.push_back(label + ": sim twin produced no recovery");
    }
    // The components partition the measured window, on both substrates.
    const double n = std::max<double>(1.0, cr.real.recoveries);
    for (const auto& [substrate, sum, window] :
         {std::tuple{"real", cr.real.recovery.total() / n,
                     cr.real.recovery_window_s / n},
          std::tuple{"sim", cr.sim.components.total(), cr.sim.window_s}}) {
      if (std::fabs(sum - window) > 2e-3) {
        violations.push_back(label + ": " + substrate + " components sum " +
                             TextTable::num(sum, 6) + " s != window " +
                             TextTable::num(window, 6) + " s");
      }
    }
    results.push_back(std::move(cr));
  }

  TextTable table({"kernel", "policy", "real win [ms]", "sim win [ms]",
                   "ratio", "real det [ms]", "sim det [ms]", "ckpt [KiB]"});
  for (const auto& cr : results) {
    const double n = std::max<double>(1.0, cr.real.recoveries);
    const double real_window = cr.real.recovery_window_s / n;
    table.add_row(
        {std::string(realexec::to_string(cr.scenario.kernel)),
         std::string(realexec::to_string(cr.scenario.policy)),
         TextTable::num(real_window * 1e3, 1),
         TextTable::num(cr.sim.window_s * 1e3, 1),
         TextTable::num(cr.sim.window_s > 0 ? real_window / cr.sim.window_s
                                            : 0.0,
                        2),
         TextTable::num(
             cr.real.recovery[obs::PathComponent::kDetection] / n * 1e3, 1),
         TextTable::num(
             cr.sim.components[obs::PathComponent::kDetection] * 1e3, 1),
         TextTable::num(static_cast<double>(cr.real.checkpoint_bytes) / 1024.0,
                        1)});
  }
  table.print(std::cout);

  const bool written = bench::write_bench_report(
      "realexec", quick, violations, {},
      [&](obs::JsonWriter& json) {
        json.field("heartbeat_interval_ms", heartbeat.to_msec());
        json.field("timeout_multiplier", timeout_multiplier);
        json.field("seed", 7);
      },
      [&](obs::JsonWriter& json) {
        // One substrate's decomposition per recovery: the window, then
        // every recovery component.
        auto write_per_recovery = [&json](const char* substrate,
                                          double window_s,
                                          const obs::ComponentSums& sums,
                                          double recoveries) {
          json.key(substrate).begin_object();
          json.field("window_s", window_s / recoveries);
          for (const obs::PathComponent c : obs::kRecoveryComponents) {
            json.field(std::string(obs::to_string_view(c)) + "_s",
                       sums[c] / recoveries);
          }
          json.end_object();
        };
        json.key("scenarios").begin_array();
        for (const auto& cr : results) {
          json.begin_object();
          json.field("kernel", realexec::to_string(cr.scenario.kernel));
          json.field("policy", realexec::to_string(cr.scenario.policy));
          json.field("completed", cr.real.completed);
          json.field("kills", cr.real.stats.sigkills_sent);
          json.field("recoveries", cr.real.recoveries);
          json.field("workers_spawned", cr.real.stats.workers_spawned);
          json.field("commits_accepted", cr.real.stats.commits_accepted);
          json.field("commits_torn", cr.real.stats.commits_torn);
          json.field("stale_epoch_rejects", cr.real.kv_stale_epoch_rejects);
          json.field("duplicate_commits", cr.real.stats.duplicate_commits);
          json.field("unfenced_stale_commits",
                     cr.real.stats.unfenced_stale_commits);
          json.field("checkpoint_bytes", cr.real.checkpoint_bytes);
          json.field("step_exec_ms", cr.real.first_step_exec_s * 1e3);
          json.field("kill_offset_ms", cr.real.kill_offset_s * 1e3);
          write_per_recovery("real", cr.real.recovery_window_s,
                             cr.real.recovery,
                             std::max<double>(1.0, cr.real.recoveries));
          // The twin's result is already a per-recovery mean.
          write_per_recovery("sim", cr.sim.window_s, cr.sim.components, 1.0);
          json.end_object();
        }
        json.end_array();
      });
  if (!written) return 1;
  if (!violations.empty()) return bench::fail("realexec_validate", violations);
  std::cout << "\nall recovery oracles held (exactly-once, no-corrupt-"
               "restore, completion)\n";
  return 0;
}

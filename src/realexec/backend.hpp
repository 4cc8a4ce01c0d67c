// Real-execution backend: drives the controller through the same
// fail -> detect -> fence -> recover cycle the simulator models, with
// genuinely asynchronous process deaths, and measures the paper's
// per-component recovery decomposition on the wall clock.
//
// One scenario = one invocation of a miniature kernel, SIGKILLed
// mid-execution `kills` times, recovered under a policy (retry from
// scratch, checkpoint restore from the epoch-fenced KV store, or a
// pre-forked warm spare). Each recovery window is split into the same
// obs::kRecoveryComponents the simulator's CriticalPathAnalyzer reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/critical_path.hpp"
#include "realexec/controller.hpp"

namespace canary::realexec {

enum class RecoveryPolicy {
  kRetry,              // restart from scratch (the FaaS default)
  kCheckpointRestore,  // resume from the latest intact KV checkpoint
  kWarmSpare,          // pre-forked idle process, scratch restart (AS)
};

const char* to_string(RecoveryPolicy policy);

struct RealScenarioConfig {
  KernelKind kernel = KernelKind::kGraphBfs;
  std::uint64_t seed = 1;
  std::uint64_t size_param = 1 << 20;
  std::uint32_t steps_total = 8;
  RecoveryPolicy policy = RecoveryPolicy::kCheckpointRestore;
  /// SIGKILL the active worker as soon as the accepted commit of step
  /// `kill_after_commit_step` is observed (mid-execution of the next
  /// step). Subsequent kills trigger two steps later each.
  std::uint32_t kill_after_commit_step = 2;
  std::uint32_t kills = 1;
  Duration heartbeat_interval = Duration::msec(40);
  double timeout_multiplier = 4.0;
};

struct RealScenarioResult {
  bool completed = false;
  std::uint64_t reference_checksum = 0;
  std::uint64_t final_checksum = 0;
  std::uint64_t recoveries = 0;
  /// Per-component recovery time summed over recoveries, measured phase
  /// by phase: detection is SIGKILL -> heartbeat-declared dead, launch
  /// fork -> Hello, init dispatch -> TaskReady, restore TaskReady ->
  /// RestoreDone, re-exec RestoreDone -> the in-flight step recommitted;
  /// scheduling is the residual (drain, spawn and dispatch gaps).
  obs::ComponentSums recovery;
  /// Measured SIGKILL-to-recommit windows, summed over recoveries.
  double recovery_window_s = 0.0;
  double makespan_s = 0.0;
  double first_step_exec_s = 0.0;  // mean accepted-commit inter-arrival
  std::uint64_t checkpoint_bytes = 0;  // last accepted checkpoint's size
  double kill_offset_s = 0.0;          // first SIGKILL, from run start
  ControllerStats stats;
  std::uint64_t kv_stale_epoch_rejects = 0;
  /// Oracle violations (empty = exactly-once, no-corrupt-restore and
  /// completion all held).
  std::vector<std::string> violations;
};

class RealBackend {
 public:
  explicit RealBackend(ControllerConfig base = {});

  RealScenarioResult run(const RealScenarioConfig& scenario);

 private:
  ControllerConfig base_;
};

}  // namespace canary::realexec

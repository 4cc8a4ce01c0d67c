// Sim-side calibration twin for the real-execution backend.
//
// Predictive validation (Quaresma et al.): configure the simulator from
// quantities *measured* on the real substrate — per-step execution
// time, checkpoint payload size, the step after whose commit the worker
// is killed, heartbeat cadence — run the same fail/recover scenario in
// simulated time, and compare the per-component recovery decomposition.
// The ratio between the two substrates is the calibration delta that
// tools/check_report.py --calibrate gates against a committed band.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "harness/scenario.hpp"
#include "obs/critical_path.hpp"

namespace canary::harness {

/// One externally measured workload, in harness-native terms.
struct CalibrationWorkload {
  std::string name;  // kernel label, e.g. "graph-bfs"
  unsigned steps = 8;
  /// Measured mean execution time of one step on the real substrate.
  Duration step_exec = Duration::msec(20);
  /// Measured size of one checkpoint commit.
  Bytes checkpoint_bytes = Bytes::zero();
  /// The real run kills its worker as soon as it observes the commit of
  /// this step (RealScenarioConfig::kill_after_commit_step); the twin
  /// kills its node during the next step on its own clock.
  std::uint32_t kill_after_step = 2;
  /// Recovery strategy under calibration (retry / canary-ckpt / AS).
  recovery::StrategyConfig strategy = recovery::StrategyConfig::retry();
  /// Real backend's detection parameters, mirrored exactly.
  Duration heartbeat_interval = Duration::msec(40);
  double timeout_multiplier = 4.0;
  std::uint64_t seed = 20240501;
  int repetitions = 5;
};

/// Recovery window and per-component seconds, averaged per recovery
/// across the twin's repetitions (a run whose random victim misses the
/// busy node contributes no recovery and is excluded by construction).
struct CalibrationTwinResult {
  std::uint64_t recoveries = 0;
  double window_s = 0.0;
  obs::ComponentSums components;
};

/// The twin's scenario: a 2-node cluster running one kNativeProc
/// function whose states mirror the measured steps, heartbeat detection
/// on with the real backend's parameters, and one node failure half a
/// step after the commit of step `kill_after_step`. A failure-free pilot
/// run of the same scenario times that commit.
ScenarioConfig calibration_scenario(const CalibrationWorkload& workload);

/// The single-function job matching calibration_scenario.
std::vector<faas::JobSpec> calibration_jobs(
    const CalibrationWorkload& workload);

/// Run the twin and reduce its critical-path breakdown to per-recovery
/// component means.
CalibrationTwinResult run_calibration_twin(const CalibrationWorkload& workload);

}  // namespace canary::harness

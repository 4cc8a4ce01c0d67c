#include "harness/calibration.hpp"

#include "harness/experiment.hpp"

namespace canary::harness {

ScenarioConfig calibration_scenario(const CalibrationWorkload& workload) {
  ScenarioConfig config;
  config.strategy = workload.strategy;
  config.error_rate = 0.0;  // the node kill is the only fault
  config.cluster_nodes = 2;
  config.seed = workload.seed;
  config.detection.enabled = true;
  config.detection.heartbeat_interval = workload.heartbeat_interval;
  config.detection.timeout_multiplier = workload.timeout_multiplier;
  // The real controller confirms on the same sweep that suspects, and
  // sweeps continuously (poll deadlines), so the twin uses a fine sweep
  // and no extra confirmation lag.
  config.detection.confirm_multiplier = 0.0;
  config.detection.sweep_interval = Duration::msec(5);
  // The twin's startup (launch + init) differs from the real worker's, so
  // the real run's wall-clock kill offset would land at another point of
  // the work. The kill is placed by progress instead: a failure-free
  // pilot finds the trigger commit on the twin's clock, and the node dies
  // half a step later, mid-way into the next step like the real SIGKILL.
  const RunResult pilot =
      ScenarioRunner::run(config, calibration_jobs(workload));
  const obs::Name trigger = obs::Name::state(workload.kill_after_step);
  for (const obs::Event& event : *pilot.events) {
    if (event.kind() == obs::EventKind::kStateCommit &&
        event.name() == trigger) {
      config.node_failure_offsets = {event.at() - TimePoint::origin() +
                                     workload.step_exec / 2};
      break;
    }
  }
  return config;
}

std::vector<faas::JobSpec> calibration_jobs(
    const CalibrationWorkload& workload) {
  faas::FunctionSpec fn;
  fn.name = workload.name;
  fn.runtime = faas::RuntimeImage::kNativeProc;
  fn.states = faas::StateTable(
      workload.steps,
      faas::StateSpec{workload.step_exec, workload.checkpoint_bytes});
  faas::JobSpec job;
  job.name = workload.name + "-calibration";
  job.functions = {fn};
  return {job};
}

CalibrationTwinResult run_calibration_twin(
    const CalibrationWorkload& workload) {
  const Aggregate agg =
      run_repetitions(calibration_scenario(workload),
                      calibration_jobs(workload), workload.repetitions);
  CalibrationTwinResult result;
  result.recoveries = agg.breakdown.recovery_count;
  if (result.recoveries == 0) return result;
  const double n = static_cast<double>(result.recoveries);
  result.window_s = agg.breakdown.recovery_window_s / n;
  for (const obs::PathComponent c : obs::kRecoveryComponents) {
    result.components[c] = agg.breakdown.recovery_components[c] / n;
  }
  return result;
}

}  // namespace canary::harness

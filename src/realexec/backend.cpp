#include "realexec/backend.hpp"

#include <algorithm>

#include "common/result.hpp"
#include "realexec/kernel_run.hpp"

namespace canary::realexec {

namespace {
constexpr WorkerId kNoWorker = 0xffffffffu;
/// Abort (completed=false) if the scenario exceeds this wall time.
constexpr Duration kRunTimeout = Duration::sec(120.0);
}  // namespace

const char* to_string(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kRetry: return "retry";
    case RecoveryPolicy::kCheckpointRestore: return "checkpoint_restore";
    case RecoveryPolicy::kWarmSpare: return "warm_spare";
  }
  return "unknown";
}

RealBackend::RealBackend(ControllerConfig base) : base_(std::move(base)) {}

RealScenarioResult RealBackend::run(const RealScenarioConfig& scenario) {
  ControllerConfig config = base_;
  config.heartbeat_interval = scenario.heartbeat_interval;
  config.timeout_multiplier = scenario.timeout_multiplier;
  Controller ctl(config);

  RealScenarioResult result;
  result.reference_checksum =
      reference_checksum(scenario.kernel, scenario.seed, scenario.size_param,
                         scenario.steps_total);

  constexpr std::uint32_t kInv = 0;
  const TimePoint t_start = ctl.now();

  // One lineage = one worker attempt at the invocation.
  struct Lineage {
    WorkerId worker = kNoWorker;
    std::uint32_t epoch = 0;
    bool is_recovery = false;
    bool dispatched = false;
    bool with_restore = false;
    bool caught_up = true;  // recovery lineages flip to false
    std::uint32_t catchup_step = 0;
    TimePoint kill_sent_at;  // recovery only: the SIGKILL that caused it
    TimePoint dead_at;       // recovery only: heartbeat-declared death
    TimePoint spawn_at, hello_at, dispatch_at, ready_at, restore_done_at;
  };

  // Warm spare: forked ahead of time, idle until a death claims it.
  WorkerId spare = kNoWorker;
  bool spare_ready = false;
  if (scenario.policy == RecoveryPolicy::kWarmSpare) {
    spare = ctl.spawn();
  }

  Lineage cur;
  cur.worker = ctl.spawn();
  cur.spawn_at = ctl.now();

  auto dispatch_lineage = [&](Lineage& lineage) {
    TaskSpec task;
    task.kernel = scenario.kernel;
    task.seed = scenario.seed;
    task.size_param = scenario.size_param;
    task.steps_total = scenario.steps_total;
    task.invocation = kInv;
    if (lineage.is_recovery &&
        scenario.policy == RecoveryPolicy::kCheckpointRestore) {
      auto ckpt = ctl.latest_checkpoint(kInv);
      if (ckpt.has_value()) {
        task.start_step = ckpt->step + 1;
        task.restore_bytes = std::move(ckpt->bytes);
      } else if (ctl.last_committed_step(kInv) >= 0) {
        // A commit was accepted but its bytes no longer verify: restoring
        // would resurrect corrupt state. Falling back to scratch is the
        // no-corrupt-restore oracle's required behaviour; flag it so the
        // bench surfaces the (unexpected here) integrity failure.
        result.violations.push_back("checkpoint failed integrity check");
      }
    }
    lineage.with_restore = !task.restore_bytes.empty();
    lineage.epoch = ctl.dispatch(lineage.worker, task);
    lineage.dispatch_at = ctl.now();
    lineage.dispatched = true;
  };

  // The current recovery lineage has repaid the failure's work deficit
  // at `at`: close its window. Scheduling is the residual, so the
  // components sum to the measured window.
  auto close_window = [&](TimePoint at) {
    using obs::PathComponent;
    obs::ComponentSums t;
    t[PathComponent::kDetection] =
        (cur.dead_at - cur.kill_sent_at).to_seconds();
    t[PathComponent::kLaunch] = (cur.hello_at - cur.spawn_at).to_seconds();
    t[PathComponent::kInit] = (cur.ready_at - cur.dispatch_at).to_seconds();
    t[PathComponent::kRestore] =
        (cur.restore_done_at - cur.ready_at).to_seconds();
    t[PathComponent::kReExec] = (at - cur.restore_done_at).to_seconds();
    const double window = (at - cur.kill_sent_at).to_seconds();
    t[PathComponent::kScheduling] = std::max(0.0, window - t.total());
    result.recovery.merge(t);
    result.recovery_window_s += window;
    ++result.recoveries;
    cur.caught_up = true;
  };

  // Kill plan: SIGKILL the worker as soon as the trigger commit is seen.
  std::uint32_t kills_done = 0;
  std::uint32_t next_kill_commit = scenario.kill_after_commit_step;
  bool kill_outstanding = false;
  TimePoint kill_sent_at;

  // Step-duration measurement (feeds the sim twin): inter-commit gaps
  // of the first, unkilled lineage.
  TimePoint last_commit_at = TimePoint::max();
  double commit_gap_sum = 0.0;
  std::uint64_t commit_gaps = 0;

  bool done = false;
  TimePoint t_end = t_start;
  std::vector<ControllerEvent> events;
  while (!done && ctl.now() - t_start < kRunTimeout) {
    events.clear();
    ctl.poll_events(Duration::msec(5), &events);

    for (const auto& ev : events) {
      switch (ev.kind) {
        case ControllerEvent::Kind::kHello: {
          if (ev.worker == spare) {
            spare_ready = true;
            break;
          }
          if (ev.worker == cur.worker && !cur.dispatched) {
            cur.hello_at = ev.at;
            dispatch_lineage(cur);
          }
          break;
        }
        case ControllerEvent::Kind::kTaskReady: {
          if (ev.worker != cur.worker || ev.epoch != cur.epoch) break;
          cur.ready_at = ev.at;
          if (!cur.with_restore) cur.restore_done_at = ev.at;
          break;
        }
        case ControllerEvent::Kind::kRestoreDone: {
          if (ev.worker != cur.worker || ev.epoch != cur.epoch) break;
          cur.restore_done_at = ev.at;
          break;
        }
        case ControllerEvent::Kind::kCommitAccepted: {
          if (ev.epoch != cur.epoch) break;
          if (!cur.is_recovery) {
            if (last_commit_at != TimePoint::max()) {
              commit_gap_sum += (ev.at - last_commit_at).to_seconds();
              ++commit_gaps;
            }
            last_commit_at = ev.at;
          }
          if (cur.is_recovery && !cur.caught_up &&
              ev.step >= cur.catchup_step) {
            // The step that was in flight when the SIGKILL landed has
            // been recommitted: the failure's work deficit is repaid.
            close_window(ev.at);
          }
          if (kills_done < scenario.kills && !kill_outstanding &&
              ev.step >= next_kill_commit) {
            // Fire now: a step takes milliseconds, so any delay risks
            // the worker committing its last step before the kill lands.
            ctl.sigkill(cur.worker);
            kill_sent_at = ctl.now();
            if (kills_done == 0) {
              result.kill_offset_s = (kill_sent_at - t_start).to_seconds();
            }
            ++kills_done;
            kill_outstanding = true;
            next_kill_commit = ev.step + 2;
          }
          break;
        }
        case ControllerEvent::Kind::kWorkerDead: {
          if (ev.worker != cur.worker) break;
          if (!kill_outstanding) {
            result.violations.push_back(
                "worker declared dead without an injected kill");
            kill_sent_at = ev.at;  // degrade gracefully: zero detection
          }
          kill_outstanding = false;

          Lineage next;
          next.is_recovery = true;
          next.caught_up = false;
          next.kill_sent_at = kill_sent_at;
          next.dead_at = ev.at;
          next.catchup_step =
              static_cast<std::uint32_t>(ctl.last_committed_step(kInv) + 1);
          if (scenario.policy == RecoveryPolicy::kWarmSpare && spare_ready) {
            next.worker = spare;
            next.spawn_at = ev.at;
            next.hello_at = ev.at;  // already forked: zero launch cost
            spare = ctl.spawn();    // re-provision for the next failure
            spare_ready = false;
            cur = next;
            dispatch_lineage(cur);
          } else {
            next.worker = ctl.spawn();
            next.spawn_at = ctl.now();
            cur = next;  // dispatch on its Hello
          }
          break;
        }
        case ControllerEvent::Kind::kComplete: {
          if (ev.epoch != ctl.current_epoch(kInv)) break;  // zombie echo
          result.final_checksum = ev.checksum;
          t_end = ev.at;
          done = true;
          if (cur.is_recovery && !cur.caught_up) {
            // Kill landed after the last step's commit: nothing to
            // recommit, the window closes at completion.
            close_window(ev.at);
          }
          break;
        }
        case ControllerEvent::Kind::kCommitStale:
        case ControllerEvent::Kind::kCommitTorn:
          break;  // accounted in ControllerStats
      }
      if (done) break;
    }
  }

  result.completed = done;
  result.makespan_s = (t_end - t_start).to_seconds();
  if (commit_gaps > 0) {
    result.first_step_exec_s =
        commit_gap_sum / static_cast<double>(commit_gaps);
  }
  if (auto ckpt = ctl.latest_checkpoint(kInv)) {
    result.checkpoint_bytes = ckpt->bytes.size();
  }
  result.stats = ctl.stats();
  result.kv_stale_epoch_rejects = ctl.store().stats().stale_epoch_rejects;

  // ---- oracles ----------------------------------------------------------
  if (!done) {
    result.violations.push_back("run timed out before completion");
  } else if (result.final_checksum != result.reference_checksum) {
    result.violations.push_back(
        "completion checksum diverged from the reference run");
  }
  if (result.stats.unfenced_stale_commits > 0) {
    result.violations.push_back(
        "exactly-once: stale-lineage commit was accepted past the fence");
  }
  if (result.stats.duplicate_commits > 0) {
    result.violations.push_back(
        "exactly-once: duplicate commit accepted within one lineage");
  }
  if (done && result.recoveries < kills_done) {
    result.violations.push_back("a killed lineage never finished recovering");
  }
  return result;
}

}  // namespace canary::realexec

// Real-execution backend: forked worker processes under real signals.
//
// The headline test is the split-brain one from the paper's
// exactly-once argument: a worker that goes silent long enough to be
// heartbeat-declared dead — but is NOT physically killed — wakes up
// and writes its state commit anyway. The controller fenced its node
// in the KV store *before* draining, so the zombie's late write must
// bounce off the epoch fence (kCommitStale + stale_epoch_rejects) and
// never count as an accepted commit. Everything here runs real
// fork/SIGKILL/SIGSTOP against wall-clock heartbeats, so assertions
// are on ordering and counters, never on absolute durations.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "realexec/backend.hpp"
#include "realexec/controller.hpp"
#include "realexec/kernel_run.hpp"

namespace canary::realexec {
namespace {

using Kind = ControllerEvent::Kind;

ControllerConfig fast_config() {
  ControllerConfig config;
  // Generous enough that a TSan-instrumented worker on a loaded CI
  // runner never misses a beat while genuinely alive; the fault hooks
  // silence workers for far longer than this deadline.
  config.heartbeat_interval = Duration::msec(40);
  config.timeout_multiplier = 4.0;
  return config;
}

/// Pump the controller until `pred` matches an event or `deadline`
/// wall time elapses. Returns the matching event.
std::optional<ControllerEvent> wait_for(
    Controller& ctl, Duration deadline,
    const std::function<bool(const ControllerEvent&)>& pred) {
  const TimePoint until = ctl.now() + deadline;
  std::vector<ControllerEvent> events;
  while (ctl.now() < until) {
    events.clear();
    ctl.poll_events(Duration::msec(50), &events);
    for (const ControllerEvent& ev : events) {
      if (pred(ev)) return ev;
    }
  }
  return std::nullopt;
}

std::optional<ControllerEvent> wait_for_kind(Controller& ctl,
                                             Duration deadline, Kind kind) {
  return wait_for(ctl, deadline,
                  [kind](const ControllerEvent& ev) { return ev.kind == kind; });
}

TEST(RealExecKernelTest, CheckpointRestoreRoundtripMatchesReference) {
  struct Case {
    KernelKind kind;
    std::uint64_t size;
  };
  const Case cases[] = {
      {KernelKind::kGraphBfs, 1u << 14},
      {KernelKind::kCompression, 256u * 1024},
      {KernelKind::kCensus, 2000},
  };
  for (const Case& c : cases) {
    const std::uint32_t steps = 4;
    const std::uint64_t seed = 11;
    const std::uint64_t reference =
        reference_checksum(c.kind, seed, c.size, steps);

    // Run half, checkpoint, resume in a fresh instance (a new process
    // would deserialize exactly these bytes), finish.
    KernelRun first(c.kind, seed, c.size, steps);
    first.init();
    first.run_step([] {});
    first.run_step([] {});
    const std::string bytes = first.checkpoint();
    ASSERT_FALSE(bytes.empty());

    KernelRun second(c.kind, seed, c.size, steps);
    second.init();
    second.restore(bytes);
    second.run_step([] {});
    second.run_step([] {});
    EXPECT_TRUE(second.done());
    EXPECT_EQ(second.checksum(), reference)
        << "kernel " << static_cast<int>(c.kind)
        << " diverged after checkpoint/restore";
  }
}

TEST(RealExecControllerTest, ZombieLateCommitBouncesOffEpochFence) {
  // kill_on_fence=false: the heartbeat detector fences the worker but
  // leaves the process alive, exactly the split-brain scenario — the
  // "dead" side keeps executing and tries to commit.
  ControllerConfig config = fast_config();
  config.kill_on_fence = false;
  Controller ctl(config);

  const WorkerId w = ctl.spawn();
  ASSERT_TRUE(wait_for_kind(ctl, Duration::sec(10.0), Kind::kHello))
      << "worker never said hello";

  TaskSpec spec;
  spec.kernel = KernelKind::kCensus;
  spec.seed = 3;
  spec.size_param = 50'000;
  spec.steps_total = 6;
  spec.invocation = 7;
  // Worker goes silent (no heartbeats, no commits) for 500ms right
  // before committing step 2, far past the 160ms death deadline —
  // then commits anyway, as a zombie.
  spec.hold_before_commit_step = 2;
  spec.hold = Duration::msec(500);
  const std::uint32_t epoch = ctl.dispatch(w, spec);

  const auto dead = wait_for_kind(ctl, Duration::sec(10.0), Kind::kWorkerDead);
  ASSERT_TRUE(dead) << "silent worker was never declared dead";
  EXPECT_EQ(dead->worker, w);
  EXPECT_EQ(ctl.state_of(w), WorkerState::kDead);
  EXPECT_TRUE(ctl.store().node_fenced(ctl.node_of(w)))
      << "death must fence the node before any drain";

  // Steps 0 and 1 landed before the hold; nothing after may count.
  EXPECT_EQ(ctl.last_committed_step(spec.invocation), 1);

  // The zombie wakes and writes its step-2 commit into the still-open
  // pipe. The controller must surface it as a stale reject.
  const auto stale = wait_for(
      ctl, Duration::sec(10.0), [&](const ControllerEvent& ev) {
        return ev.kind == Kind::kCommitStale && ev.worker == w && ev.step == 2;
      });
  ASSERT_TRUE(stale) << "zombie's late commit never surfaced";
  EXPECT_EQ(stale->epoch, epoch);

  const ControllerStats stats = ctl.stats();
  EXPECT_EQ(stats.heartbeat_deaths, 1u);
  EXPECT_EQ(stats.commits_accepted, 2u);  // steps 0, 1 only
  EXPECT_EQ(stats.unfenced_stale_commits, 0u)
      << "a stale commit slipped past the epoch fence (exactly-once broken)";
  EXPECT_GE(ctl.store().stats().stale_epoch_rejects, 1u)
      << "the KV fence, not controller bookkeeping, must reject the write";
  EXPECT_EQ(ctl.last_committed_step(spec.invocation), 1);
}

TEST(RealExecControllerTest, TornCommitFrameIsDiscardedAtDrain) {
  // The worker writes half a commit frame for step 2 and wedges; the
  // death drain must flag the partial frame as torn, not accept or
  // misparse it, and the latest intact checkpoint must stay step 1.
  Controller ctl(fast_config());

  const WorkerId w = ctl.spawn();
  ASSERT_TRUE(wait_for_kind(ctl, Duration::sec(10.0), Kind::kHello));

  TaskSpec spec;
  spec.kernel = KernelKind::kCensus;
  spec.seed = 5;
  spec.size_param = 50'000;
  spec.steps_total = 6;
  spec.invocation = 1;
  spec.torn_commit_step = 2;
  ctl.dispatch(w, spec);

  // The death drain flags the torn frame inside the same poll batch
  // that reports the death, so collect the whole batch stream.
  const TimePoint until = ctl.now() + Duration::sec(10.0);
  bool dead_seen = false;
  bool torn_seen = false;
  while (ctl.now() < until && !(dead_seen && torn_seen)) {
    std::vector<ControllerEvent> batch;
    ctl.poll_events(Duration::msec(50), &batch);
    for (const ControllerEvent& ev : batch) {
      dead_seen |= ev.kind == Kind::kWorkerDead;
      torn_seen |= ev.kind == Kind::kCommitTorn && ev.worker == w;
    }
  }
  ASSERT_TRUE(dead_seen) << "wedged worker was never declared dead";
  ASSERT_TRUE(torn_seen) << "half-written commit frame was not flagged torn";

  const ControllerStats stats = ctl.stats();
  EXPECT_GE(stats.commits_torn, 1u);
  EXPECT_EQ(stats.commits_accepted, 2u);
  EXPECT_EQ(stats.unfenced_stale_commits, 0u);

  const auto ckpt = ctl.latest_checkpoint(spec.invocation);
  ASSERT_TRUE(ckpt) << "intact checkpoints before the tear must survive";
  EXPECT_EQ(ckpt->step, 1u);
  ASSERT_FALSE(ckpt->bytes.empty());

  // No-corrupt-restore oracle: the surviving bytes actually load.
  KernelRun resume(spec.kernel, spec.seed, spec.size_param, spec.steps_total);
  resume.init();
  resume.restore(ckpt->bytes);
}

TEST(RealExecControllerTest, SigstopIsIndistinguishableFromDeath) {
  // SIGSTOP freezes heartbeats without closing any fd — detection must
  // come from the deadline sweep, and the fence must land regardless.
  Controller ctl(fast_config());

  const WorkerId w = ctl.spawn();
  ASSERT_TRUE(wait_for_kind(ctl, Duration::sec(10.0), Kind::kHello));

  TaskSpec spec;
  spec.kernel = KernelKind::kCensus;
  spec.seed = 9;
  spec.size_param = 200'000;
  spec.steps_total = 8;
  spec.invocation = 2;
  ctl.dispatch(w, spec);

  ASSERT_TRUE(wait_for_kind(ctl, Duration::sec(10.0), Kind::kCommitAccepted))
      << "worker never committed step 0";
  ctl.sigstop(w);

  const auto dead = wait_for_kind(ctl, Duration::sec(10.0), Kind::kWorkerDead);
  ASSERT_TRUE(dead) << "stopped worker was never declared dead";
  EXPECT_EQ(dead->worker, w);
  EXPECT_EQ(ctl.state_of(w), WorkerState::kDead);
  EXPECT_TRUE(ctl.store().node_fenced(ctl.node_of(w)));
  EXPECT_EQ(ctl.stats().heartbeat_deaths, 1u);
}

TEST(RealExecBackendTest, SigkillMidExecutionRecoversFromCheckpoint) {
  // End to end: the injector's node-kill as a real SIGKILL, recovery by
  // checkpoint restore, all oracles (completion, exactly-once,
  // no-corrupt-restore) enforced by the backend itself via violations.
  RealScenarioConfig scenario;
  scenario.kernel = KernelKind::kCensus;
  scenario.seed = 21;
  scenario.size_param = 200'000;
  scenario.steps_total = 8;
  scenario.policy = RecoveryPolicy::kCheckpointRestore;
  scenario.kill_after_commit_step = 2;
  scenario.kills = 1;
  scenario.heartbeat_interval = Duration::msec(60);
  scenario.timeout_multiplier = 5.0;

  RealBackend backend;
  const RealScenarioResult result = backend.run(scenario);

  EXPECT_TRUE(result.violations.empty())
      << "oracle violations: "
      << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.final_checksum, result.reference_checksum);
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(result.stats.sigkills_sent, 1u);
  EXPECT_GE(result.stats.workers_spawned, 2u);
  EXPECT_EQ(result.stats.unfenced_stale_commits, 0u);
  EXPECT_EQ(result.stats.duplicate_commits, 0u);
  using obs::PathComponent;
  EXPECT_GT(result.recovery[PathComponent::kDetection], 0.0)
      << "heartbeat detection takes real wall time";
  EXPECT_GT(result.recovery_window_s, 0.0);
  // The recovery components partition the measured window; the
  // first-try and open-loop components never occur inside one.
  EXPECT_NEAR(result.recovery.total(), result.recovery_window_s, 1e-3);
  for (const PathComponent c :
       {PathComponent::kExec, PathComponent::kFinalize,
        PathComponent::kQueueing, PathComponent::kHedging}) {
    EXPECT_EQ(result.recovery[c], 0.0) << obs::to_string_view(c);
  }
}

TEST(RealExecBackendTest, RetryPolicyRestartsFromScratch) {
  RealScenarioConfig scenario;
  scenario.kernel = KernelKind::kCensus;
  scenario.seed = 22;
  scenario.size_param = 200'000;
  scenario.steps_total = 8;
  scenario.policy = RecoveryPolicy::kRetry;
  scenario.kill_after_commit_step = 2;
  scenario.kills = 1;
  scenario.heartbeat_interval = Duration::msec(60);
  scenario.timeout_multiplier = 5.0;

  RealBackend backend;
  const RealScenarioResult result = backend.run(scenario);

  EXPECT_TRUE(result.violations.empty())
      << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.final_checksum, result.reference_checksum);
  EXPECT_EQ(result.recoveries, 1u);
  // Retry restores nothing: the whole resume cost is re-execution.
  EXPECT_EQ(result.recovery[obs::PathComponent::kRestore], 0.0);
}

}  // namespace
}  // namespace canary::realexec

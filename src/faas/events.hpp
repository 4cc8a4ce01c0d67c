// Extension-point interfaces between the platform and the fault-tolerance
// layers built on top of it.
//
// The platform stays policy-free: failures are *injected* through
// FailurePolicy, *reacted to* through RecoveryHandler (retry by default,
// Canary's Core Module when installed), and execution is *decorated*
// through ExecutionHooks (Canary's Checkpointing Module adds per-state
// checkpoint overhead and records restore points).
#pragma once

#include <cstddef>
#include <optional>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "faas/container.hpp"
#include "faas/function.hpp"
#include "obs/name.hpp"

namespace canary::faas {

enum class FailureKind {
  kContainerKill,  // injected container kill (docker kill equivalent)
  kNodeFailure,    // hosting node died
  kTimeout,        // exceeded the platform's function timeout
  /// A recovery dispatch stalled (gray node, slow launch) and the
  /// controller's watchdog killed it to re-route. Controller-initiated,
  /// so it skips the failure-detection delay entirely.
  kRecoveryStall,
};

/// The name of a kill's kFailure event.
inline obs::Name event_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kContainerKill: return obs::Name::kContainerKill;
    case FailureKind::kNodeFailure: return obs::Name::kNodeFailure;
    case FailureKind::kTimeout: return obs::Name::kTimeout;
    case FailureKind::kRecoveryStall: return obs::Name::kRecoveryStall;
  }
  return obs::Name::kUnnamed;
}

struct FailureInfo {
  FailureKind kind = FailureKind::kContainerKill;
  NodeId node;
  ContainerId container;
};

/// Decides whether/when an attempt is killed. Implemented by
/// failure::FailureInjector; the platform calls it once per attempt with
/// the attempt's planned busy duration (launch through finalize).
class FailurePolicy {
 public:
  virtual ~FailurePolicy() = default;
  /// Offset from attempt start at which to kill the container, or nullopt
  /// for a clean run.
  virtual std::optional<Duration> plan_kill(const Invocation& inv, int attempt,
                                            Duration busy_estimate) = 0;
};

/// Reacts to function failures. Exactly one handler is installed; the
/// platform reports the failure after the configured detection delay.
class RecoveryHandler {
 public:
  virtual ~RecoveryHandler() = default;
  virtual void on_failure(const Invocation& inv, const FailureInfo& info) = 0;
};

/// Decorates execution. Epilogue duration must be a pure function of
/// (invocation, state index) — it is used both for scheduling and for
/// attempt-duration estimates handed to the failure policy.
class ExecutionHooks {
 public:
  virtual ~ExecutionHooks() = default;
  /// Extra time appended after state `state_idx` commits (checkpoint
  /// write). Nominal (speed-1.0) time.
  virtual Duration state_epilogue(const Invocation& inv,
                                  std::size_t state_idx) = 0;
  /// State `state_idx` committed (including its epilogue). The
  /// Checkpointing Module records the checkpoint here.
  virtual void on_state_committed(const Invocation& inv,
                                  std::size_t state_idx) = 0;
};

/// Passive observation of platform events (metrics, Canary bookkeeping).
class PlatformObserver {
 public:
  virtual ~PlatformObserver() = default;
  virtual void on_job_submitted(JobId) {}
  virtual void on_attempt_started(const Invocation&) {}
  virtual void on_function_completed(const Invocation&) {}
  virtual void on_function_failed(const Invocation&, const FailureInfo&) {}
  virtual void on_container_ready(const Container&) {}
  virtual void on_container_destroyed(const Container&) {}
  virtual void on_job_completed(JobId) {}
};

}  // namespace canary::faas

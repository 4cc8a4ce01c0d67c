// Function and job specifications.
//
// A function executes a sequence of states (paper §II-A: "a function can
// consume input data and process the data in a single or multiple phases
// called states"); each state has a nominal duration and a checkpoint
// payload size that Canary's Checkpointing Module would persist after the
// state commits. Eq. (1) decomposes a function's execution into launch
// (lch_f), initialization (ini_f), workload execution (exec_f — the state
// sequence), and the remainder fin_f.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "faas/runtime.hpp"
#include "obs/event_log.hpp"

namespace canary::faas {

struct StateSpec {
  /// Nominal compute time for this state on a speed-1.0 node.
  Duration duration;
  /// Application state + critical data the Checkpointing Module persists
  /// after this state commits (e.g. model weights after an epoch).
  Bytes checkpoint_payload = Bytes::zero();
};

/// A function's state sequence: an immutable table shared by every copy.
///
/// Copying a table (and so a FunctionSpec or JobSpec) copies one pointer
/// and shares the states, so a job of N instances of one template holds
/// one table, not N. Nothing can change a table once it is built; to give
/// a function different states, assign it a new table. An empty table
/// allocates nothing.
class StateTable {
 public:
  StateTable() = default;
  /// Takes the states over; an empty vector leaves the table empty.
  /// Implicit, so a built vector assigns straight to
  /// FunctionSpec::states.
  // NOLINTNEXTLINE(google-explicit-constructor)
  StateTable(std::vector<StateSpec> states)
      : states_(states.empty() ? nullptr
                               : std::make_shared<const std::vector<StateSpec>>(
                                     std::move(states))) {}
  /// `count` copies of `state`.
  StateTable(std::size_t count, const StateSpec& state)
      : StateTable(std::vector<StateSpec>(count, state)) {}

  std::size_t size() const { return states_ ? states_->size() : 0; }
  bool empty() const { return states_ == nullptr; }
  const StateSpec& operator[](std::size_t i) const { return (*states_)[i]; }
  const StateSpec& front() const { return states_->front(); }
  const StateSpec* begin() const { return states_ ? states_->data() : nullptr; }
  const StateSpec* end() const {
    return states_ ? states_->data() + states_->size() : nullptr;
  }

 private:
  std::shared_ptr<const std::vector<StateSpec>> states_;
};

/// One function's specification. A copy shares the state table (see
/// StateTable) and copies the name and the trigger list, so a job of N
/// instances costs N names, not N state tables. Once a job is submitted
/// its specs must not change: Invocation::spec points into the job's
/// spec, which the platform may share with the caller.
struct FunctionSpec {
  std::string name;
  RuntimeImage runtime = RuntimeImage::kPython3;
  /// Memory request; zero means "use the runtime image default".
  Bytes memory = Bytes::zero();
  StateTable states;
  /// fin_f: from the last state update to function completion.
  Duration finalize = Duration::zero();
  /// Per-function completion deadline relative to submission; zero = none
  /// (the job-level SLA, if any, applies instead). The platform arms the
  /// SLO watchdog with whichever deadline is in effect.
  Duration sla = Duration::zero();
  /// Trigger dependencies (paper §II-A: "a function can invoke other
  /// functions which work on the data produced by the previous
  /// functions"): indices of functions *within the same job* that must
  /// complete before this function is triggered. Empty = triggered at
  /// job submission. MapReduce-style stages chain through this.
  std::vector<std::size_t> depends_on;

  Bytes effective_memory() const {
    return memory.count() > 0 ? memory : profile(runtime).memory;
  }
  /// Total nominal state work (exec_f without checkpoint overheads).
  Duration total_state_work() const {
    Duration total = Duration::zero();
    for (const auto& s : states) total += s.duration;
    return total;
  }
};

struct JobSpec {
  std::string name;
  AccountId account = AccountId{1};
  /// Completion deadline relative to submission; zero = best effort.
  /// Used by SLA-aware recovery (Canary's future-work extension): the
  /// Core Module prioritises the recovery of deadline-threatened
  /// functions.
  Duration sla = Duration::zero();
  /// Open-loop arrival instant, set by the traffic generator when the
  /// request entered admission control (TimePoint::max() = not traffic-
  /// driven). When set, SLO deadlines anchor here instead of at platform
  /// submission and the pre-admission wait is attributed to the
  /// `queueing` critical-path component.
  TimePoint enqueued_at = TimePoint::max();
  std::vector<FunctionSpec> functions;
};

/// Execution phase of a function invocation, following Fig. 1's execution
/// flow (job launch, container launch, container initialization, execution
/// startup, state updates, function completion).
enum class Phase {
  kPending,       // submitted, waiting for concurrency/capacity
  kLaunching,     // container launch (lch_f)
  kInitializing,  // runtime initialization (ini_f)
  kStarting,      // dispatch/migration/restore onto a ready container
  kExecuting,     // state updates
  kFinalizing,    // fin_f
  kCompleted,
  kFailed,        // currently failed, awaiting recovery decision
  kShed,          // rejected by admission control; never executed
};

std::string_view to_string_view(Phase phase);

/// Public, read-only view of one function invocation's progress. Owned by
/// the Platform; recovery handlers and observers receive const references.
///
/// The progress fields (`next_state`, `work_done`) are current at every
/// platform callback: observer, recovery handler, execution hook and
/// failure policy calls. In between they may lag. Without a per-state
/// consumer (ExecutionHooks or an event log) the platform dispatches one
/// engine event per execution segment, and the state commits inside a
/// segment apply only at its end or when the attempt is interrupted.
struct Invocation {
  FunctionId id;
  JobId job;
  const FunctionSpec* spec = nullptr;

  Phase phase = Phase::kPending;
  int attempt = 0;           // 1-based once started
  std::size_t next_state = 0;  // index of the next state to execute
  NodeId node;               // current/last hosting node
  ContainerId container;     // current/last container

  /// Causal-trace position: the invocation's trace id plus its most
  /// recent event (the parent of whatever happens to it next). Only
  /// populated when an obs::EventLog is installed on the platform.
  obs::TraceContext trace;

  TimePoint submit_time;
  TimePoint first_dispatch_time = TimePoint::max();
  TimePoint completion_time = TimePoint::max();

  /// Nominal work completed in the current lineage (restored floor plus
  /// states completed since). Microsecond units of speed-1.0 time.
  Duration work_done = Duration::zero();

  int failures = 0;
  /// Total time spent regaining lost progress (see DESIGN.md metrics).
  Duration recovery_time = Duration::zero();
  /// Nominal work discarded by failures (re-executed from scratch or from
  /// a checkpoint).
  Duration lost_work = Duration::zero();

  bool completed() const { return phase == Phase::kCompleted; }
};

inline std::string_view to_string_view(Phase phase) {
  switch (phase) {
    case Phase::kPending: return "pending";
    case Phase::kLaunching: return "launching";
    case Phase::kInitializing: return "initializing";
    case Phase::kStarting: return "starting";
    case Phase::kExecuting: return "executing";
    case Phase::kFinalizing: return "finalizing";
    case Phase::kCompleted: return "completed";
    case Phase::kFailed: return "failed";
    case Phase::kShed: return "shed";
  }
  return "unknown";
}

}  // namespace canary::faas

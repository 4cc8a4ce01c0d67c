// The benchmark's own tracing, recorded from outside the simulator:
//
//   * SpanLog: named host-time spans around the benchmark's calls into each
//     layer (setup, simulate, collect, report and trace export). Each span
//     holds a name, start, end and parent; spans stay in memory until the
//     pass ends. A span's self time is its duration minus its children's.
//   * Seam wrappers: forwarding FailurePolicy / RecoveryHandler /
//     ExecutionHooks implementations installed through the platform's own
//     policy setters. Each call is forwarded unchanged to the object the
//     scenario wired, and its host time and heap allocations are charged
//     to the seam. A seam entered while another is open is charged to the
//     inner one only, so seam times never double count and
//     `simulate - sum(seams)` is the engine + platform remainder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "faas/events.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  // index of the enclosing span, -1 for a root
};

class SpanLog {
 public:
  // Reserved up front so opening a span never allocates inside a phase
  // whose allocations are being counted.
  SpanLog() {
    spans_.reserve(16);
    open_.reserve(16);
  }

  /// Open a span whose parent is the innermost open span.
  int begin(std::string name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  double duration_s(int id) const;
  /// Duration minus the durations of the span's direct children.
  double self_s(int id) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-seam totals. Time and allocations exclude nested seams.
struct SeamStats {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  std::uint64_t allocs = 0;

  double self_s() const { return static_cast<double>(self_ns) * 1e-9; }
};

/// Exclusive accounting for possibly nested seam calls.
class SeamClock {
 public:
  SeamClock() { stack_.reserve(64); }

  /// Charges the enclosed call to `stats` for as long as it is alive.
  class Scope {
   public:
    Scope(SeamClock& clock, SeamStats& stats);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SeamClock& clock_;
  };

  /// Host time spent inside outermost seam calls.
  std::int64_t top_level_ns() const { return top_level_ns_; }

 private:
  struct Frame {
    SeamStats* stats;
    Clock::time_point start;
    std::uint64_t allocs_start;
    std::int64_t child_ns = 0;
    std::uint64_t child_allocs = 0;
  };
  std::vector<Frame> stack_;
  std::int64_t top_level_ns_ = 0;
};

/// The four policy seams the platform exposes, plus their shared clock.
struct Seams {
  SeamClock clock;
  SeamStats plan_kill;       // FailurePolicy::plan_kill
  SeamStats on_failure;      // RecoveryHandler::on_failure
  SeamStats state_epilogue;  // ExecutionHooks::state_epilogue
  SeamStats state_commit;    // ExecutionHooks::on_state_committed
};

class TimedFailurePolicy final : public canary::faas::FailurePolicy {
 public:
  TimedFailurePolicy(canary::faas::FailurePolicy& inner, Seams& seams)
      : inner_(inner), seams_(seams) {}
  std::optional<canary::Duration> plan_kill(
      const canary::faas::Invocation& inv, int attempt,
      canary::Duration busy_estimate) override {
    SeamClock::Scope scope(seams_.clock, seams_.plan_kill);
    return inner_.plan_kill(inv, attempt, busy_estimate);
  }

 private:
  canary::faas::FailurePolicy& inner_;
  Seams& seams_;
};

class TimedRecoveryHandler final : public canary::faas::RecoveryHandler {
 public:
  TimedRecoveryHandler(canary::faas::RecoveryHandler& inner, Seams& seams)
      : inner_(inner), seams_(seams) {}
  void on_failure(const canary::faas::Invocation& inv,
                  const canary::faas::FailureInfo& info) override {
    SeamClock::Scope scope(seams_.clock, seams_.on_failure);
    inner_.on_failure(inv, info);
  }

 private:
  canary::faas::RecoveryHandler& inner_;
  Seams& seams_;
};

class TimedHooks final : public canary::faas::ExecutionHooks {
 public:
  TimedHooks(canary::faas::ExecutionHooks& inner, Seams& seams)
      : inner_(inner), seams_(seams) {}
  canary::Duration state_epilogue(const canary::faas::Invocation& inv,
                                  std::size_t state_idx) override {
    SeamClock::Scope scope(seams_.clock, seams_.state_epilogue);
    return inner_.state_epilogue(inv, state_idx);
  }
  void on_state_committed(const canary::faas::Invocation& inv,
                          std::size_t state_idx) override {
    SeamClock::Scope scope(seams_.clock, seams_.state_commit);
    inner_.on_state_committed(inv, state_idx);
  }

 private:
  canary::faas::ExecutionHooks& inner_;
  Seams& seams_;
};

}  // namespace perfbench

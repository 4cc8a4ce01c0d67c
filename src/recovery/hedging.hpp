// Speculative hedging with exactly-once cancellation (the request-cloning
// model of arXiv:2002.04416, applied as a tail/recovery strategy).
//
// Every submitted function arms a hedge timer at a configurable
// percentile of the *observed* completion-latency distribution (tracked
// online from the platform's HDR histogram samples; a fixed initial
// delay bootstraps the first requests). If the invocation is still
// unfinished when the timer fires — slow node, gray degradation, or
// sitting out a retry backoff after a failure — a clone is dispatched via
// Platform::hedge_clone and the two copies race. The first completion
// wins; the loser is cancelled exactly-once through
// Platform::cancel_hedge, which composes with every other path a copy
// can take:
//
//   * loser completes in the same sim-tick as the winner — the loser is
//     already terminal, cancellation is a no-op;
//   * the clone's node dies mid-race (even before launch) — the clone's
//     failure closes the race instead of restarting it; a clone is never
//     retried, the primary carries the request;
//   * the primary fails mid-race — it retries as usual (optionally after
//     a backoff) while the clone keeps racing; if the clone wins during
//     the backoff window the pending restart is detected as stale and
//     dropped.
//
// Amplification is budgeted twice: a global cap on outstanding clones
// here, and (when the open-loop traffic subsystem drives the run) a
// per-class admission budget wired in through set_budget_hooks so clones
// cannot push an already-saturated class past its concurrency limit.
//
// Race accounting is exactly-once by construction and audited by the
// chaos campaign's hedge oracle:
//
//   hedges_fired == hedge_wins + hedges_cancelled + open_races
//   #kHedged events == hedges_fired
//   #kHedgeCancelled events == resolved races
#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>

#include "common/time.hpp"
#include "faas/events.hpp"
#include "faas/platform.hpp"
#include "obs/histogram.hpp"
#include "obs/metric_registry.hpp"

namespace canary::recovery {

struct HedgeConfig {
  /// Latency percentile that triggers the clone dispatch.
  double percentile = 95.0;
  /// Completions observed before the percentile trigger is trusted.
  std::size_t min_samples = 20;
  /// Bootstrap delay used until `min_samples` completions are recorded.
  Duration initial_delay = Duration::sec(2.0);
  /// Global cap on concurrently racing clones (the per-class admission
  /// budget additionally applies under open-loop traffic).
  std::size_t max_outstanding = 64;
  /// Retry cap for primary failures; 0 means unlimited (platform default).
  int max_retries = 0;
  /// Wait before restarting a failed primary; zero restarts immediately.
  /// A non-zero backoff opens the window in which a hedge can fire while
  /// the primary is down — the designed hedge-during-backoff edge case.
  Duration retry_backoff = Duration::zero();
};

class HedgeHandler final : public faas::RecoveryHandler,
                           public faas::PlatformObserver {
 public:
  /// Per-request budget gate (wired at the traffic admission layer):
  /// `try_hedge` is consulted before a clone launches and must account
  /// the grant; `done` releases it when the race resolves.
  using TryHedgeFn = std::function<bool(JobId)>;
  using HedgeDoneFn = std::function<void(JobId)>;

  explicit HedgeHandler(faas::Platform& platform, HedgeConfig config = {});

  void set_budget_hooks(TryHedgeFn try_hedge, HedgeDoneFn done);

  /// Current clone-dispatch delay (percentile-derived once warmed up).
  Duration current_delay() const;
  std::size_t open_races() const { return races_.size(); }
  int giveups() const { return giveups_; }

  // RecoveryHandler
  void on_failure(const faas::Invocation& inv,
                  const faas::FailureInfo& info) override;

  // PlatformObserver
  void on_job_submitted(JobId job) override;
  void on_function_completed(const faas::Invocation& inv) override;

 private:
  void maybe_hedge(FunctionId id);
  /// Close the race keyed by `primary`: cancel `loser` in favour of
  /// `winner` and release the hedge budget.
  void finish_race(FunctionId primary, FunctionId loser, FunctionId winner);
  void release_budget(JobId job);

  faas::Platform& platform_;
  HedgeConfig config_;
  TryHedgeFn try_hook_;
  HedgeDoneFn done_hook_;

  /// Completed primary latencies (seconds); drives the online percentile.
  obs::Histogram latency_;
  /// Open races: primary -> clone, plus the reverse index.
  std::unordered_map<FunctionId, FunctionId> races_;
  std::unordered_map<FunctionId, FunctionId> clone_index_;
  std::size_t outstanding_ = 0;
  int giveups_ = 0;
  /// Reentrancy guard: cancel_hedge completes the loser synchronously,
  /// which re-enters on_function_completed.
  bool discarding_ = false;

  obs::CounterHandle m_fired_{platform_.metrics(), "hedges_fired"};
  obs::CounterHandle m_wins_{platform_.metrics(), "hedge_wins"};
  obs::CounterHandle m_cancelled_{platform_.metrics(), "hedges_cancelled"};
  obs::CounterHandle m_denied_{platform_.metrics(), "hedges_denied"};
  obs::CounterHandle m_skipped_{platform_.metrics(), "hedges_skipped"};
  obs::CounterHandle m_retries_{platform_.metrics(), "hedge_retries"};
};

}  // namespace canary::recovery

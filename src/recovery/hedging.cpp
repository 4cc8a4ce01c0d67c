#include "recovery/hedging.hpp"

#include <utility>

#include "common/logging.hpp"
#include "common/result.hpp"

namespace canary::recovery {

namespace {

/// Floor on the hedge delay so a tight distribution cannot degenerate into
/// hedging everything immediately.
constexpr Duration kMinHedgeDelay = Duration::msec(50);

}  // namespace

HedgeHandler::HedgeHandler(faas::Platform& platform, HedgeConfig config)
    : platform_(platform), config_(config) {
  CANARY_CHECK(config_.percentile > 0.0 && config_.percentile <= 100.0,
               "hedge percentile out of range");
}

void HedgeHandler::set_budget_hooks(TryHedgeFn try_hedge, HedgeDoneFn done) {
  CANARY_CHECK((try_hedge == nullptr) == (done == nullptr),
               "hedge budget hooks come as a pair");
  try_hook_ = std::move(try_hedge);
  done_hook_ = std::move(done);
}

Duration HedgeHandler::current_delay() const {
  if (latency_.count() < config_.min_samples) return config_.initial_delay;
  const Duration delay = Duration::sec(latency_.percentile(config_.percentile));
  return delay > kMinHedgeDelay ? delay : kMinHedgeDelay;
}

void HedgeHandler::on_job_submitted(JobId job) {
  // One timer per function, anchored at submission: the trigger measures
  // request latency the way a caller would, so queueing and retries count
  // against the percentile just like execution does.
  const Duration delay = current_delay();
  for (const FunctionId id : platform_.job_functions(job)) {
    platform_.simulator().schedule_after(delay,
                                         [this, id] { maybe_hedge(id); });
  }
}

void HedgeHandler::maybe_hedge(FunctionId id) {
  const faas::Invocation& inv = platform_.invocation(id);
  if (inv.phase == faas::Phase::kCompleted || inv.phase == faas::Phase::kShed) {
    return;  // finished under the trigger: the common, un-hedged case
  }
  // Clones never hedge, and a primary races at most one clone at a time.
  if (clone_index_.count(id) != 0 || races_.count(id) != 0) return;
  if (inv.phase == faas::Phase::kPending) {
    // Still waiting on account concurrency or node capacity: a clone
    // would only double the queue entry it is supposed to bypass.
    m_skipped_.add();
    return;
  }
  if (outstanding_ >= config_.max_outstanding) {
    m_denied_.add();
    return;
  }
  if (try_hook_ != nullptr && !try_hook_(inv.job)) {
    m_denied_.add();
    return;
  }
  ++outstanding_;
  const FunctionId clone = platform_.hedge_clone(id);
  races_[id] = clone;
  clone_index_[clone] = id;
  m_fired_.add();
}

void HedgeHandler::finish_race(FunctionId primary, FunctionId loser,
                               FunctionId winner) {
  const FunctionId clone = races_.at(primary);
  discarding_ = true;
  platform_.cancel_hedge(loser, winner);
  discarding_ = false;
  races_.erase(primary);
  clone_index_.erase(clone);
  release_budget(platform_.invocation(primary).job);
}

void HedgeHandler::release_budget(JobId job) {
  CANARY_CHECK(outstanding_ > 0, "hedge budget release without a grant");
  --outstanding_;
  if (done_hook_ != nullptr) done_hook_(job);
}

void HedgeHandler::on_function_completed(const faas::Invocation& inv) {
  if (discarding_) return;  // the loser's discard-completion, not a win
  if (const auto it = clone_index_.find(inv.id); it != clone_index_.end()) {
    // The clone finished first: the speculation paid off. The request's
    // latency is still measured from the primary's submission.
    const FunctionId primary = it->second;
    latency_.record(
        (inv.completion_time - platform_.invocation(primary).submit_time)
            .to_seconds());
    m_wins_.add();
    finish_race(primary, /*loser=*/primary, /*winner=*/inv.id);
    return;
  }
  if (const auto it = races_.find(inv.id); it != races_.end()) {
    // The primary beat its clone: cancel the speculation exactly-once.
    latency_.record((inv.completion_time - inv.submit_time).to_seconds());
    m_cancelled_.add();
    finish_race(inv.id, /*loser=*/it->second, /*winner=*/inv.id);
    return;
  }
  latency_.record((inv.completion_time - inv.submit_time).to_seconds());
}

void HedgeHandler::on_failure(const faas::Invocation& inv,
                              const faas::FailureInfo& info) {
  (void)info;
  if (const auto it = clone_index_.find(inv.id); it != clone_index_.end()) {
    // A failed clone is never restarted — restarting speculation would
    // turn the budget into a lie. Close the race; the primary carries
    // the request from here.
    const FunctionId primary = it->second;
    platform_.log_recovery_action(inv.id, obs::Name::kHedgeCloneAbandoned);
    m_cancelled_.add();
    finish_race(primary, /*loser=*/inv.id, /*winner=*/primary);
    return;
  }
  // Primary (or plain unhedged) failure: retry like the platform default,
  // optionally after a backoff. An open race keeps racing meanwhile.
  if (config_.max_retries > 0 && inv.failures > config_.max_retries) {
    ++giveups_;
    CANARY_LOG_WARN("hedge: giving up on function " << inv.id.value()
                                                    << " after " << inv.failures
                                                    << " failures");
    return;
  }
  m_retries_.add();
  platform_.log_recovery_action(inv.id, obs::Name::kHedgeRetry);
  if (config_.retry_backoff > Duration::zero()) {
    const FunctionId id = inv.id;
    const int attempt = inv.attempt;
    platform_.simulator().schedule_after(
        config_.retry_backoff, [this, id, attempt] {
          const faas::Invocation& target = platform_.invocation(id);
          // The clone may have won (primary discarded) or another failure
          // may have superseded this attempt during the backoff window;
          // either way the pending restart is stale.
          if (target.phase != faas::Phase::kFailed ||
              target.attempt != attempt) {
            return;
          }
          platform_.start_attempt(id, faas::StartSpec{});
        });
  } else {
    platform_.start_attempt(inv.id, faas::StartSpec{});
  }
}

}  // namespace canary::recovery

#include "faas/retry.hpp"

#include "common/logging.hpp"

namespace canary::faas {

void RetryHandler::on_failure(const Invocation& inv, const FailureInfo& info) {
  (void)info;
  if (config_.max_retries > 0 && inv.failures > config_.max_retries) {
    ++giveups_;
    CANARY_LOG_WARN("retry budget exhausted for function "
                    << to_string(inv.id));
    return;
  }
  platform_.metrics().count("retry_restarts");
  platform_.log_recovery_action(inv.id, obs::Name::kRetryRestart);
  // Restart from the first instruction in a new cold container; no state
  // survives the failure.
  StartSpec spec;
  spec.from_state = 0;
  platform_.start_attempt(inv.id, spec);
}

}  // namespace canary::faas

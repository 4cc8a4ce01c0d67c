// Active-standby baseline (paper §V-D5, [66]).
//
// "AS creates two function instances; one for serving all requests and
// the other as standby." The standby is a warm, initialized container
// kept per function on a different node; when the active instance fails
// the standby takes over — from the beginning, since AS has no
// checkpoints — and the takeover "triggers the creation of a new passive
// instance". The standby consumes resources while dormant, which is what
// drives AS's cost in Fig. 10.
#pragma once

#include <unordered_map>

#include "faas/events.hpp"
#include "faas/platform.hpp"

namespace canary::recovery {

class ActiveStandbyHandler final : public faas::RecoveryHandler,
                                   public faas::PlatformObserver {
 public:
  explicit ActiveStandbyHandler(faas::Platform& platform)
      : platform_(platform) {}

  // RecoveryHandler
  void on_failure(const faas::Invocation& inv,
                  const faas::FailureInfo& info) override;

  // PlatformObserver
  void on_job_submitted(JobId job) override;
  void on_function_completed(const faas::Invocation& inv) override;
  void on_container_ready(const faas::Container& c) override;
  void on_container_destroyed(const faas::Container& c) override;

 private:
  void provision_standby(FunctionId fn);

  faas::Platform& platform_;
  /// Each live function's standby container; it is ready once Warm.
  std::unordered_map<FunctionId, ContainerId> standbys_;
  std::unordered_map<ContainerId, FunctionId> by_container_;
};

}  // namespace canary::recovery

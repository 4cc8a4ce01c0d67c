// Request replication baseline (paper §V-D5, [65]).
//
// Each logical function runs as a race group of (1 + k) instances started
// together; "the incoming requests are forwarded to all functions and the
// first successful response is accepted and the rest are discarded". A
// failed instance is not restarted while siblings survive; if every
// instance of a group is down simultaneously, the whole group restarts
// from the beginning (there are no checkpoints in RR).
//
// Usage: expand the job with `expand_job`, submit it, then `track_job` so
// the handler can build its groups from the platform's function ids.
#pragma once

#include <unordered_map>
#include <vector>

#include "faas/events.hpp"
#include "faas/platform.hpp"

namespace canary::recovery {

class RequestReplicationHandler final : public faas::RecoveryHandler,
                                        public faas::PlatformObserver {
 public:
  RequestReplicationHandler(faas::Platform& platform, unsigned replicas)
      : platform_(platform), replicas_(replicas) {}

  /// Duplicate every function (1 + replicas) times, preserving order so
  /// group g occupies indices [g*(1+k), (g+1)*(1+k)).
  faas::JobSpec expand_job(const faas::JobSpec& logical) const;

  /// Register the submitted (expanded) job's functions into race groups.
  void track_job(JobId job);

  // RecoveryHandler
  void on_failure(const faas::Invocation& inv,
                  const faas::FailureInfo& info) override;

  // PlatformObserver
  void on_function_completed(const faas::Invocation& inv) override;

 private:
  struct Group {
    std::vector<FunctionId> members;
    std::vector<bool> down;  // currently failed, awaiting a sibling win
    bool won = false;
  };

  Group* group_of(FunctionId id);

  faas::Platform& platform_;
  unsigned replicas_;
  std::unordered_map<JobId, std::vector<Group>> groups_;
  std::unordered_map<FunctionId, std::pair<JobId, std::size_t>> index_;
  bool discarding_ = false;
};

}  // namespace canary::recovery

#include "recovery/active_standby.hpp"

#include "common/logging.hpp"

namespace canary::recovery {

void ActiveStandbyHandler::provision_standby(FunctionId fn) {
  const auto& inv = platform_.invocation(fn);
  if (inv.completed()) return;
  const faas::RuntimeImage image = inv.spec->runtime;

  // Place the standby away from the active instance so one node failure
  // cannot take both.
  std::vector<NodeId> avoid;
  if (inv.node.valid()) avoid.push_back(inv.node);
  auto node = platform_.cluster().least_loaded_excluding(
      faas::profile(image).memory, avoid);
  if (!node) node = platform_.cluster().least_loaded(faas::profile(image).memory);
  if (!node) {
    CANARY_LOG_WARN("no capacity for a standby of function " << to_string(fn));
    return;
  }

  auto launched = platform_.launch_warm_container(
      *node, image, faas::ContainerPurpose::kStandby);
  if (!launched.ok()) return;
  auto [it, inserted] = standbys_.try_emplace(fn, launched.value());
  if (!inserted) {
    // A failure found the previous standby still launching. Forget it:
    // on_container_ready then tears it down instead of leaving it to
    // idle (and bill) as a standby of nothing.
    by_container_.erase(it->second);
    it->second = launched.value();
  }
  by_container_[launched.value()] = fn;
}

void ActiveStandbyHandler::on_job_submitted(JobId job) {
  for (const FunctionId fn : platform_.job_functions(job)) {
    provision_standby(fn);
  }
}

void ActiveStandbyHandler::on_failure(const faas::Invocation& inv,
                                      const faas::FailureInfo& info) {
  (void)info;
  auto it = standbys_.find(inv.id);
  if (it != standbys_.end() && platform_.container(it->second).warm_idle()) {
    const ContainerId standby = it->second;
    by_container_.erase(standby);
    standbys_.erase(it);
    // The standby becomes the active instance; no checkpoint exists, so
    // execution restarts from the first state on the warm container.
    faas::StartSpec start;
    start.from_state = 0;
    start.container = standby;
    platform_.metrics().count("as_standby_activations");
    platform_.log_recovery_action(inv.id, obs::Name::kAsStandbyActivation);
    platform_.start_attempt(inv.id, start);
  } else {
    // Standby not ready (still launching, or lost with its node): cold
    // restart, as a retry would.
    platform_.metrics().count("as_cold_restarts");
    platform_.log_recovery_action(inv.id, obs::Name::kAsColdRestart);
    platform_.start_attempt(inv.id, faas::StartSpec{});
  }
  // Takeover triggers the creation of a new passive instance.
  provision_standby(inv.id);
}

void ActiveStandbyHandler::on_function_completed(const faas::Invocation& inv) {
  auto it = standbys_.find(inv.id);
  if (it == standbys_.end()) return;
  const ContainerId standby = it->second;
  by_container_.erase(standby);
  standbys_.erase(it);
  if (platform_.container(standby).warm_idle()) {
    platform_.destroy_warm_container(standby);
  }
  // A standby still launching is destroyed by on_container_ready once it
  // finds no by_container_ entry.
}

void ActiveStandbyHandler::on_container_ready(const faas::Container& c) {
  // A standby whose function finished, or whose failure superseded it,
  // while it launched is an orphan that would idle (and bill) forever.
  if (c.purpose != faas::ContainerPurpose::kStandby) return;
  if (!by_container_.contains(c.id)) platform_.destroy_warm_container(c.id);
}

void ActiveStandbyHandler::on_container_destroyed(const faas::Container& c) {
  auto fn_it = by_container_.find(c.id);
  if (fn_it == by_container_.end()) return;
  const FunctionId fn = fn_it->second;
  by_container_.erase(fn_it);
  auto it = standbys_.find(fn);
  if (it != standbys_.end() && it->second == c.id) {
    standbys_.erase(it);
    // The node took the standby down; provision a replacement if the
    // function is still live.
    provision_standby(fn);
  }
}

}  // namespace canary::recovery

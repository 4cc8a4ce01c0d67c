#include "recovery/request_replication.hpp"

#include "common/result.hpp"

namespace canary::recovery {

faas::JobSpec RequestReplicationHandler::expand_job(
    const faas::JobSpec& logical) const {
  faas::JobSpec expanded;
  expanded.name = logical.name + "+rr";
  expanded.account = logical.account;
  expanded.functions.reserve(logical.functions.size() * (1 + replicas_));
  for (const auto& fn : logical.functions) {
    for (unsigned r = 0; r <= replicas_; ++r) {
      faas::FunctionSpec copy = fn;
      if (r > 0) copy.name += "+r" + std::to_string(r);
      expanded.functions.push_back(std::move(copy));
    }
  }
  return expanded;
}

void RequestReplicationHandler::track_job(JobId job) {
  const auto& functions = platform_.job_functions(job);
  const std::size_t stride = 1 + replicas_;
  CANARY_CHECK(functions.size() % stride == 0,
               "job was not expanded with this handler's replica count");
  auto& job_groups = groups_[job];
  job_groups.resize(functions.size() / stride);
  for (std::size_t g = 0; g < job_groups.size(); ++g) {
    auto& group = job_groups[g];
    for (std::size_t r = 0; r < stride; ++r) {
      const FunctionId member = functions[g * stride + r];
      group.members.push_back(member);
      group.down.push_back(false);
      index_[member] = {job, g};
      // Primary and shadows race as one logical request: merge every
      // shadow's causal chain into the primary's trace.
      if (r > 0) platform_.join_trace(member, group.members.front());
    }
  }
}

RequestReplicationHandler::Group* RequestReplicationHandler::group_of(
    FunctionId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  return &groups_[it->second.first][it->second.second];
}

void RequestReplicationHandler::on_failure(const faas::Invocation& inv,
                                           const faas::FailureInfo& info) {
  (void)info;
  Group* group = group_of(inv.id);
  if (group == nullptr || group->won) return;  // loser dying post-win

  for (std::size_t i = 0; i < group->members.size(); ++i) {
    if (group->members[i] == inv.id) group->down[i] = true;
  }
  const bool all_down =
      std::all_of(group->down.begin(), group->down.end(), [](bool d) { return d; });
  if (!all_down) return;  // a sibling is still racing; no restart

  // Every instance of the request died: restart the whole group from the
  // beginning (no checkpoints in RR).
  platform_.metrics().count("rr_group_restarts");
  for (std::size_t i = 0; i < group->members.size(); ++i) {
    group->down[i] = false;
    platform_.log_recovery_action(group->members[i],
                                    obs::Name::kRrGroupRestart);
    platform_.start_attempt(group->members[i], faas::StartSpec{});
  }
}

void RequestReplicationHandler::on_function_completed(
    const faas::Invocation& inv) {
  if (discarding_) return;  // completions we caused ourselves
  Group* group = group_of(inv.id);
  if (group == nullptr || group->won) return;
  group->won = true;
  platform_.metrics().count("rr_group_wins");

  // First successful response accepted; discard the rest.
  discarding_ = true;
  for (const FunctionId member : group->members) {
    if (member == inv.id) continue;
    if (!platform_.invocation(member).completed()) {
      platform_.discard_function(member);
    }
  }
  discarding_ = false;
}

}  // namespace canary::recovery

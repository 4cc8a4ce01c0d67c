#include "canary/proactive.hpp"

namespace canary::core {

void ProactiveMitigator::prune(std::deque<TimePoint>& events) const {
  const TimePoint horizon =
      sim_.now().count_usec() > config_.window.count_usec()
          ? TimePoint::from_usec(sim_.now().count_usec() -
                                 config_.window.count_usec())
          : TimePoint::origin();
  while (!events.empty() && events.front() < horizon) events.pop_front();
}

bool ProactiveMitigator::observe_failure(NodeId node) {
  if (!config_.enabled) return false;
  auto& events = failures_[node];
  const bool was_suspect =
      static_cast<int>(events.size()) >= config_.suspect_threshold;
  events.push_back(sim_.now());
  prune(events);
  const bool now_suspect =
      static_cast<int>(events.size()) >= config_.suspect_threshold;
  return now_suspect && !was_suspect;
}

bool ProactiveMitigator::is_suspect(NodeId node) const {
  if (!config_.enabled) return false;
  auto it = failures_.find(node);
  if (it == failures_.end()) return false;
  prune(it->second);
  return static_cast<int>(it->second.size()) >= config_.suspect_threshold;
}

bool ProactiveMitigator::any_suspect() const {
  if (!config_.enabled) return false;
  for (const auto& [node, events] : failures_) {
    if (is_suspect(node)) return true;
  }
  return false;
}

}  // namespace canary::core

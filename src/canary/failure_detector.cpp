#include "canary/failure_detector.hpp"

#include <algorithm>

#include "obs/event_log.hpp"

namespace canary::core {

FailureDetector::FailureDetector(sim::Simulator& simulator,
                                 faas::Platform& platform,
                                 FailureDetectorConfig config)
    : sim_(simulator), platform_(platform), config_(config) {
  workers_.resize(platform_.cluster().size());
}

FailureDetector::WorkerState& FailureDetector::state(NodeId node) {
  return workers_[node.value() - 1];
}

const FailureDetector::WorkerState& FailureDetector::state(
    NodeId node) const {
  return workers_[node.value() - 1];
}

double FailureDetector::suspicion_level(NodeId node) const {
  const WorkerState& w = state(node);
  if (config_.heartbeat_interval <= Duration::zero()) return 0.0;
  return (sim_.now() - w.last_heartbeat) / config_.heartbeat_interval;
}

bool FailureDetector::is_suspected(NodeId node) const {
  return state(node).suspected;
}

bool FailureDetector::is_confirmed_dead(NodeId node) const {
  return state(node).confirmed;
}

bool FailureDetector::done() const {
  return (platform_.all_jobs_completed() &&
          !(pending_work_ && pending_work_())) ||
         sim_.now() >= TimePoint::origin() + config_.horizon;
}

void FailureDetector::start() {
  if (!config_.enabled || started_) return;
  started_ = true;
  // Id-ordered start keeps event scheduling (and thus the whole run)
  // deterministic regardless of container iteration order elsewhere.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const NodeId node{static_cast<std::uint64_t>(i + 1)};
    workers_[i].last_heartbeat = sim_.now();
    schedule_heartbeat(node);
  }
  schedule_sweep();
}

void FailureDetector::schedule_heartbeat(NodeId node) {
  WorkerState& w = state(node);
  if (w.publishing) return;
  w.publishing = true;
  sim_.schedule_after(config_.heartbeat_interval, [this, node] {
    WorkerState& w = state(node);
    w.publishing = false;
    if (done()) return;  // let Simulator::run() drain and terminate
    auto& cluster = platform_.cluster();
    if (!cluster.contains(node) || !cluster.node(node).alive()) {
      return;  // dead workers stop heartbeating — that is the signal
    }
    const TimePoint sent = sim_.now();
    platform_.metrics().count("heartbeats_sent");
    // Partition gate: the controller hears the majority side. A beat from
    // a worker that cannot reach a quorum of its peers never arrives —
    // that is what makes the minority side look dead over there. Checked
    // at send time; reaches_majority short-circuits to true when no
    // partition is active.
    if (!platform_.network().reaches_majority(node)) {
      platform_.metrics().count("heartbeats_partition_dropped");
      schedule_heartbeat(node);
      return;
    }
    std::optional<Duration> delay =
        faults_ != nullptr ? faults_->heartbeat_delay(node, sent)
                           : std::optional<Duration>(Duration::zero());
    if (!delay.has_value()) {
      platform_.metrics().count("heartbeats_dropped");
    } else if (*delay <= Duration::zero()) {
      deliver_heartbeat(node, sent);
    } else {
      sim_.schedule_after(*delay,
                          [this, node, sent] { deliver_heartbeat(node, sent); });
    }
    schedule_heartbeat(node);
  });
}

void FailureDetector::deliver_heartbeat(NodeId node, TimePoint sent) {
  WorkerState& w = state(node);
  if (w.confirmed) return;  // fenced; late beats are ignored
  // Delayed beats can overtake each other; the lease keeps the freshest.
  w.last_heartbeat = std::max(w.last_heartbeat, sent);
  if (w.suspected) {
    // The worker was alive all along — a delayed heartbeat, not a death.
    // Un-suspect before any recovery was confirmed, so nothing
    // double-executes.
    w.suspected = false;
    platform_.metrics().count("false_suspicions");
    annotate(node, obs::Name::kWorkerUnsuspected);
  }
}

void FailureDetector::schedule_sweep() {
  sim_.schedule_after(config_.sweep_interval, [this] {
    if (done()) return;
    sweep();
    schedule_sweep();
  });
}

void FailureDetector::sweep() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const NodeId node{static_cast<std::uint64_t>(i + 1)};
    WorkerState& w = workers_[i];
    if (w.confirmed) continue;
    const double suspicion = suspicion_level(node);
    if (!w.suspected && suspicion >= config_.timeout_multiplier) {
      w.suspected = true;
      platform_.metrics().count("worker_suspicions");
      annotate(node, obs::Name::kWorkerSuspected);
    }
    if (w.suspected &&
        suspicion >= config_.timeout_multiplier + config_.confirm_multiplier) {
      w.confirmed = true;
      platform_.metrics().count("workers_confirmed_dead");
      annotate(node, obs::Name::kWorkerConfirmedDead);
      if (listener_ != nullptr) listener_->on_worker_confirmed_dead(node);
      // Fence + drain stashed node failures into the recovery handler.
      platform_.confirm_node_dead(node);
    }
  }
}

void FailureDetector::annotate(NodeId node, obs::Name what) {
  auto* events = platform_.events();
  if (events == nullptr) return;
  obs::SpanLabels labels;
  labels.node = node;
  events->append_raw(events->new_trace(), obs::kNoEvent,
                     obs::EventKind::kAnnotation, what, sim_.now(), labels);
}

}  // namespace canary::core

#include "failure/injector.hpp"

#include <cmath>

namespace canary::failure {

namespace {
/// Mark an injector-driven node failure in the causal log, so traces can
/// distinguish injected chaos from organic deaths. Returns the event id
/// (kNoEvent without a log) so correlated kills can share it as a cause.
obs::EventId annotate_injection(sim::Simulator& simulator,
                                faas::Platform& platform, NodeId node,
                                obs::Name what) {
  auto* events = platform.events();
  if (events == nullptr) return obs::kNoEvent;
  obs::SpanLabels labels;
  labels.node = node;
  return events->append_raw(events->new_trace(), obs::kNoEvent,
                            obs::EventKind::kAnnotation, what, simulator.now(),
                            labels);
}
}  // namespace

FaultTotals& FaultTotals::operator+=(const FaultTotals& other) {
  planned_kills += other.planned_kills;
  node_kills += other.node_kills;
  skipped_node_kills += other.skipped_node_kills;
  gray_windows += other.gray_windows;
  heartbeats_delayed += other.heartbeats_delayed;
  store_entries_dropped += other.store_entries_dropped;
  store_entries_corrupted += other.store_entries_corrupted;
  partitions_started += other.partitions_started;
  partitions_healed += other.partitions_healed;
  zone_outages += other.zone_outages;
  return *this;
}

std::optional<Duration> FailureInjector::plan_kill(const faas::Invocation& inv,
                                                   int attempt,
                                                   Duration busy_estimate) {
  if (config_.error_rate <= 0.0) return std::nullopt;

  if (config_.mode == InjectionMode::kHazardRate) {
    const std::size_t slot = inv.id.value() - 1;
    if (slot >= first_busy_.size()) {
      // Geometric growth by hand: resize(n) alone allocates exactly n, so
      // sequential ids would trigger a reallocation per invocation.
      std::size_t grown = first_busy_.empty() ? 64 : first_busy_.size() * 2;
      first_busy_.resize(std::max(grown, slot + 1), Duration::max());
    }
    if (first_busy_[slot] == Duration::max()) first_busy_[slot] = busy_estimate;
    const Duration reference = first_busy_[slot];
    double exposure = 1.0;
    if (reference > Duration::zero()) exposure = busy_estimate / reference;
    const double p_fail =
        1.0 - std::pow(1.0 - config_.error_rate, exposure);
    Rng draw = rng_.child(inv.id.value() * 1315423911ULL +
                          static_cast<std::uint64_t>(attempt));
    if (!draw.bernoulli(p_fail)) return std::nullopt;
    ++totals_.planned_kills;
    return busy_estimate * draw.uniform01();
  }

  if (config_.mode == InjectionMode::kPerAttempt) {
    // Derive the draw from a per-(function, attempt) child stream so a
    // function's fate does not depend on the order in which other
    // functions start.
    Rng draw = rng_.child(inv.id.value() * 1315423911ULL +
                          static_cast<std::uint64_t>(attempt));
    if (!draw.bernoulli(config_.error_rate)) return std::nullopt;
    ++totals_.planned_kills;
    return busy_estimate * draw.uniform01();
  }

  auto [it, inserted] = plans_.try_emplace(inv.id);
  Plan& plan = it->second;
  if (inserted) {
    Rng draw = rng_.child(inv.id.value());
    plan.fail = draw.bernoulli(config_.error_rate);
    plan.fraction = draw.uniform01();
  }
  if (!plan.fail || plan.consumed) return std::nullopt;
  if (attempt != config_.kill_on_attempt) return std::nullopt;
  plan.consumed = true;
  ++totals_.planned_kills;
  return busy_estimate * plan.fraction;
}

void FailureInjector::fire_node_failure(sim::Simulator& simulator,
                                        faas::Platform& platform,
                                        kv::KvStore* store, NodeId victim,
                                        obs::Name what, obs::EventId cause) {
  ++totals_.node_kills;
  annotate_injection(simulator, platform, victim, what);
  platform.fail_node(victim, cause);
  if (store != nullptr) store->fail_node(victim);
}

void FailureInjector::schedule_node_failure(sim::Simulator& simulator,
                                            faas::Platform& platform,
                                            kv::KvStore* store, TimePoint when,
                                            std::optional<NodeId> victim) {
  simulator.schedule_at(when, [this, &simulator, &platform, store, victim] {
    // Keep at least one node alive so the workload can finish.
    if (platform.cluster().alive_count() <= 1) return;
    NodeId target;
    if (victim) {
      // Regression guard: a victim already taken down by an earlier
      // failure event must not be killed again — a second fail_node would
      // re-count the death and a second store->fail_node would re-drop
      // (and in partitioned mode re-prune) its KV entries.
      if (!platform.cluster().contains(*victim) ||
          !platform.cluster().node(*victim).alive()) {
        ++totals_.skipped_node_kills;
        return;
      }
      target = *victim;
    } else {
      auto drawn = platform.cluster().weighted_random_alive(rng_);
      if (!drawn) return;
      target = *drawn;
    }
    fire_node_failure(simulator, platform, store, target,
                      obs::Name::kInjectedNodeFailure);
  });
}

void FailureInjector::schedule_correlated_node_failure(
    sim::Simulator& simulator, faas::Platform& platform, kv::KvStore* store,
    TimePoint when, int precursor_kills, Duration precursor_window) {
  const TimePoint pick_at =
      when.count_usec() > precursor_window.count_usec()
          ? TimePoint::from_usec(when.count_usec() -
                                 precursor_window.count_usec())
          : TimePoint::origin();
  simulator.schedule_at(pick_at, [this, &simulator, &platform, store, when,
                                  precursor_kills, precursor_window] {
    auto victim = platform.cluster().weighted_random_alive(rng_);
    if (!victim || platform.cluster().alive_count() <= 1) return;
    const NodeId node = *victim;
    // Degradation phase: container kills on the victim, evenly spread.
    for (int k = 0; k < precursor_kills; ++k) {
      const Duration offset =
          precursor_window * (static_cast<double>(k + 1) /
                              static_cast<double>(precursor_kills + 1));
      simulator.schedule_after(offset, [&platform, node] {
        if (!platform.cluster().node(node).alive()) return;
        // Kill the busiest container's function on the degrading node.
        for (const auto* c : platform.containers_on(node)) {
          if (c->state == faas::ContainerState::kBusy && c->assigned.valid()) {
            platform.kill_function(c->assigned,
                                   faas::FailureKind::kContainerKill);
            return;
          }
        }
      });
    }
    // Terminal failure. A victim already killed by an overlapping failure
    // event counts as a skipped kill, same as the explicit-victim path of
    // schedule_node_failure — one node, one death in the accounting.
    simulator.schedule_at(when, [this, &simulator, &platform, store, node] {
      if (!platform.cluster().node(node).alive()) {
        ++totals_.skipped_node_kills;
        return;
      }
      if (platform.cluster().alive_count() <= 1) return;
      fire_node_failure(simulator, platform, store, node,
                        obs::Name::kInjectedCorrelatedNodeFailure);
    });
  });
}

void FailureInjector::schedule_gray_window(sim::Simulator& simulator,
                                           faas::Platform& platform,
                                           TimePoint start, Duration duration,
                                           double slowdown,
                                           std::optional<NodeId> victim) {
  simulator.schedule_at(start, [this, &simulator, &platform, duration,
                                slowdown, victim] {
    NodeId target;
    if (victim && platform.cluster().contains(*victim) &&
        platform.cluster().node(*victim).alive()) {
      target = *victim;
    } else if (!victim) {
      auto drawn = platform.cluster().weighted_random_alive(rng_);
      if (!drawn) return;
      target = *drawn;
    } else {
      return;  // requested victim already dead
    }
    ++totals_.gray_windows;
    // Stack with any narrower gray window already in force.
    platform.set_node_slowdown(
        target, platform.cluster().node(target).slowdown() * slowdown);
    annotate_injection(simulator, platform, target,
                       obs::Name::kInjectedGrayStart);
    simulator.schedule_after(duration, [this, &simulator, &platform, target,
                                        slowdown] {
      if (!platform.cluster().contains(target) ||
          !platform.cluster().node(target).alive()) {
        return;  // died mid-window; slowdown dies with it
      }
      platform.set_node_slowdown(
          target, platform.cluster().node(target).slowdown() / slowdown);
      annotate_injection(simulator, platform, target,
                         obs::Name::kInjectedGrayEnd);
    });
  });
}

void FailureInjector::add_heartbeat_fault(HeartbeatFault fault) {
  heartbeat_faults_.push_back(fault);
}

std::optional<Duration> FailureInjector::heartbeat_delay(NodeId node,
                                                         TimePoint send_time) {
  Duration delay = Duration::zero();
  for (const HeartbeatFault& fault : heartbeat_faults_) {
    if (fault.node && *fault.node != node) continue;
    if (send_time < fault.start || send_time >= fault.start + fault.duration) {
      continue;
    }
    if (fault.drop_rate > 0.0) {
      // Drop decisions key on (node, send time) so they do not depend on
      // how many heartbeats other nodes sent first.
      Rng draw = rng_.child(
          node.value() * 2654435761ULL +
          static_cast<std::uint64_t>((send_time - TimePoint::origin())
                                         .count_usec()));
      if (draw.bernoulli(fault.drop_rate)) return std::nullopt;
    }
    if (fault.delay > delay) delay = fault.delay;
  }
  if (delay > Duration::zero()) ++totals_.heartbeats_delayed;
  return delay;
}

void FailureInjector::schedule_store_fault(sim::Simulator& simulator,
                                           faas::Platform& platform,
                                           kv::KvStore& store, TimePoint when,
                                           unsigned lose, unsigned corrupt) {
  simulator.schedule_at(when, [this, &simulator, &platform, &store, when,
                               lose, corrupt] {
    std::vector<std::string> keys = store.keys_with_prefix("ckpt/");
    if (keys.empty()) return;
    Rng draw = rng_.child(
        0x57A7EFA17ULL ^
        static_cast<std::uint64_t>((when - TimePoint::origin()).count_usec()));
    auto pick = [&]() -> std::optional<std::string> {
      if (keys.empty()) return std::nullopt;
      const std::size_t idx = static_cast<std::size_t>(
          draw.uniform_int(0, keys.size() - 1));
      std::string key = keys[idx];
      keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(idx));
      return key;
    };
    bool fired = false;
    for (unsigned i = 0; i < lose; ++i) {
      if (auto key = pick()) {
        if (store.drop_entry(*key)) {
          ++totals_.store_entries_dropped;
          fired = true;
        }
      }
    }
    for (unsigned i = 0; i < corrupt; ++i) {
      if (auto key = pick()) {
        if (store.corrupt_entry(*key)) {
          ++totals_.store_entries_corrupted;
          fired = true;
        }
      }
    }
    if (fired) {
      annotate_injection(simulator, platform, NodeId::invalid(),
                         obs::Name::kInjectedStoreFault);
    }
  });
}

void FailureInjector::schedule_partition(sim::Simulator& simulator,
                                         faas::Platform& platform,
                                         TimePoint start, Duration duration,
                                         std::vector<NodeId> from,
                                         std::vector<NodeId> to,
                                         bool symmetric) {
  simulator.schedule_at(start, [this, &simulator, &platform, duration,
                                from = std::move(from), to = std::move(to),
                                symmetric] {
    if (from.empty() || to.empty()) {
      // Degenerate window (a zone slice with no members in this shard):
      // still counted, so per-shard counter merges stay invariant.
      ++totals_.partitions_started;
      ++totals_.partitions_healed;
      return;
    }
    auto& net = platform.network();
    const auto forward = net.block(from, to);
    const auto reverse =
        symmetric ? net.block(to, from) : cluster::NetworkModel::RuleId{0};
    ++totals_.partitions_started;
    annotate_injection(simulator, platform, NodeId::invalid(),
                       obs::Name::kPartitionStart);
    simulator.schedule_after(duration, [this, &simulator, &platform, forward,
                                        reverse, symmetric] {
      auto& healed = platform.network();
      healed.unblock(forward);
      if (symmetric) healed.unblock(reverse);
      ++totals_.partitions_healed;
      annotate_injection(simulator, platform, NodeId::invalid(),
                         obs::Name::kPartitionHeal);
    });
  });
}

void FailureInjector::schedule_zone_partition(sim::Simulator& simulator,
                                              faas::Platform& platform,
                                              TimePoint start,
                                              Duration duration,
                                              std::uint32_t zone) {
  // Resolve membership at fire time: nodes that died before the window
  // opens are no longer endpoints worth blocking.
  simulator.schedule_at(start, [this, &simulator, &platform, duration, zone] {
    std::vector<NodeId> inside;
    std::vector<NodeId> outside;
    for (const NodeId id : platform.cluster().alive_node_ids()) {
      (platform.cluster().zone_of(id) == zone ? inside : outside)
          .push_back(id);
    }
    schedule_partition(simulator, platform, simulator.now(), duration,
                       std::move(inside), std::move(outside),
                       /*symmetric=*/true);
  });
}

void FailureInjector::schedule_zone_outage(sim::Simulator& simulator,
                                           faas::Platform& platform,
                                           kv::KvStore* store, TimePoint when,
                                           std::uint32_t zone) {
  simulator.schedule_at(when, [this, &simulator, &platform, store, zone] {
    ++totals_.zone_outages;
    // One causal root for the whole outage: every member's kNodeFailure
    // event carries a cause edge back to it, so the trace shows a single
    // domain-level event fanning out to correlated kills.
    const obs::EventId cause = annotate_injection(
        simulator, platform, NodeId::invalid(),
        obs::Name::kInjectedZoneOutage);
    for (const NodeId member : platform.cluster().nodes_in_zone(zone)) {
      if (!platform.cluster().node(member).alive()) {
        // Overlap with an earlier scheduled kill on this member: one
        // death, one count — the correlated extension of the PR4
        // double-kill guard.
        ++totals_.skipped_node_kills;
        continue;
      }
      // Keep at least one node alive so the workload can finish.
      if (platform.cluster().alive_count() <= 1) break;
      fire_node_failure(simulator, platform, store, member,
                        obs::Name::kInjectedZoneOutageKill, cause);
    }
  });
}

}  // namespace canary::failure

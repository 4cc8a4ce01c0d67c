#include "canary/replication.hpp"

#include <algorithm>
#include <cmath>

namespace canary::core {

namespace {

/// DR: headroom multiplier over the estimated failure rate.
constexpr double kDynamicSafety = 1.25;
/// DR: Bayesian prior for the failure-rate estimate before evidence.
constexpr double kFailureRatePrior = 0.05;
constexpr double kPriorStrength = 20.0;
constexpr unsigned kMaxReplicasPerRuntime = 128;

}  // namespace

double ReplicationModule::estimated_failure_rate() const {
  // Beta-binomial posterior mean: starts at the prior and converges to
  // the observed failure fraction as evidence accumulates.
  return (failures_seen_ + kFailureRatePrior * kPriorStrength) /
         (functions_seen_ + kPriorStrength);
}

std::size_t ReplicationModule::active_functions(
    faas::RuntimeImage image) const {
  auto it = active_.find(image);
  return it == active_.end() ? 0 : it->second;
}

std::size_t ReplicationModule::effective_active(
    faas::RuntimeImage image) const {
  const std::size_t submitted = active_functions(image);
  if (submitted == 0) return 0;
  auto run_it = running_.find(image);
  const std::size_t running = run_it == running_.end() ? 0 : run_it->second;
  // Concurrency share: the account limit divided over the images in use
  // bounds how many functions of this image can run at once.
  std::size_t images_in_use = 0;
  for (const auto& [img, count] : active_) {
    if (count > 0) ++images_in_use;
  }
  const std::size_t share =
      platform_.config().limits.max_concurrent_invocations /
      std::max<std::size_t>(1, images_in_use);
  return std::min(submitted, std::max(running, share));
}

unsigned ReplicationModule::target_replicas(faas::RuntimeImage image) const {
  if (!config_.enabled) return 0;
  const std::size_t active = effective_active(image);
  if (active == 0) return 0;
  unsigned target = 1;
  switch (config_.mode) {
    case ReplicationMode::kLenient:
      target = 1;
      break;
    case ReplicationMode::kAggressive:
      target = static_cast<unsigned>(std::ceil(
          config_.aggressive_fraction * static_cast<double>(active)));
      break;
    case ReplicationMode::kDynamic: {
      const double want = estimated_failure_rate() * kDynamicSafety *
                          static_cast<double>(active);
      const double cap = kDynamicCapFraction * static_cast<double>(active);
      target = static_cast<unsigned>(std::ceil(std::min(want, cap)));
      break;
    }
  }
  if (advisor_ != nullptr) {
    // Pre-scale while a worker is predicted to fail: its warm replicas
    // and running functions may all need new homes at once.
    target = static_cast<unsigned>(
        std::ceil(static_cast<double>(target) * advisor_->replica_boost()));
  }
  target = std::max(target, 1u);
  return std::min(target, kMaxReplicasPerRuntime);
}

void ReplicationModule::on_job_submitted(JobId job) {
  // Algorithm 2: compute func_total over active + scheduled functions,
  // then per scheduled runtime launch replicas until the replication
  // factor covers the new population.
  const auto& spec = platform_.job_spec(job);
  std::vector<faas::RuntimeImage> runtimes;
  for (const auto& fn : spec.functions) {
    ++active_[fn.runtime];
    functions_seen_ += 1.0;
    if (std::find(runtimes.begin(), runtimes.end(), fn.runtime) ==
        runtimes.end()) {
      runtimes.push_back(fn.runtime);
    }
  }
  for (const auto image : runtimes) reconcile(image);
}

void ReplicationModule::count_rack(NodeId node, int delta) {
  auto& cluster = platform_.cluster();
  if (!cluster.contains(node)) return;
  const std::uint32_t rack = cluster.node(node).spec().rack;
  if (rack >= functions_per_rack_.size()) functions_per_rack_.resize(rack + 1);
  functions_per_rack_[rack] += delta;
}

void ReplicationModule::on_attempt_started(const faas::Invocation& inv) {
  auto [it, inserted] = fn_node_.try_emplace(inv.id, inv.node);
  if (inserted) {
    ++running_[inv.spec->runtime];
  } else {
    count_rack(it->second, -1);  // the attempt moved off its last node
    it->second = inv.node;
  }
  count_rack(inv.node, +1);
}

void ReplicationModule::on_function_completed(const faas::Invocation& inv) {
  auto it = active_.find(inv.spec->runtime);
  if (it != active_.end() && it->second > 0) --it->second;
  if (auto fn = fn_node_.find(inv.id); fn != fn_node_.end()) {
    count_rack(fn->second, -1);
    fn_node_.erase(fn);
    auto run_it = running_.find(inv.spec->runtime);
    if (run_it != running_.end() && run_it->second > 0) --run_it->second;
  }
  reconcile(inv.spec->runtime);
}

void ReplicationModule::on_failure_observed(const faas::Invocation& inv) {
  failures_seen_ += 1.0;
  // Dynamic replication reacts to the updated failure-rate estimate.
  reconcile(inv.spec->runtime);
}

void ReplicationModule::on_replica_consumed(faas::RuntimeImage image) {
  metrics_.count("replicas_consumed");
  reconcile(image);
}

void ReplicationModule::on_replica_destroyed(faas::RuntimeImage image) {
  reconcile(image);
}

std::optional<NodeId> ReplicationModule::place_replica(
    faas::RuntimeImage image) const {
  auto& cluster = platform_.cluster();
  const Bytes memory = faas::profile(image).memory;
  if (!config_.anti_spof_placement) {
    // Ablation: first-fit packing — replicas stack on the lowest-id node
    // with capacity, so one node failure can take out every replica.
    for (const NodeId node : cluster.alive_node_ids()) {
      if (cluster.node(node).can_host(memory)) return node;
    }
    return std::nullopt;
  }
  const auto replica_nodes = manager_.replica_nodes(image);

  // First replica: co-locate with a worker hosting a function of this
  // runtime (checkpoint/data locality). Ties on free slots go to the
  // first node in fn_node_'s hash-map iteration order.
  if (replica_nodes.empty()) {
    std::optional<NodeId> best;
    std::uint32_t best_free = 0;
    for (const auto& [fn, node] : fn_node_) {
      if (!cluster.contains(node)) continue;
      const auto& host = cluster.node(node);
      if (!host.can_host(memory)) continue;
      if (!best || host.free_slots() > best_free) {
        best = node;
        best_free = host.free_slots();
      }
    }
    if (best) return best;
  }

  // Further replicas: avoid nodes already hosting a replica of this
  // runtime (anti-SPOF), prefer racks hosting the functions. When the
  // cluster spreads fault domains, a further replica strongly prefers a
  // zone hosting no replica of the same runtime yet, so one correlated
  // zone outage cannot take out the whole pool.
  const bool spread = cluster.spread_fault_domains();
  std::vector<std::uint32_t> replica_zones;
  if (spread) {
    for (const NodeId node : replica_nodes) {
      if (cluster.contains(node)) {
        replica_zones.push_back(cluster.node(node).spec().zone);
      }
    }
  }
  std::optional<NodeId> best;
  double best_score = 0.0;
  for (const NodeId node : cluster.alive_node_ids()) {
    const auto& host = cluster.node(node);
    if (!host.can_host(memory)) continue;
    if (std::find(replica_nodes.begin(), replica_nodes.end(), node) !=
        replica_nodes.end()) {
      continue;
    }
    const std::uint32_t rack = host.spec().rack;
    const bool near_functions =
        rack < functions_per_rack_.size() && functions_per_rack_[rack] > 0;
    const bool suspect = advisor_ != nullptr && advisor_->is_suspect(node);
    // Fault-domain spreading: a zone already holding a replica of this
    // runtime is a single correlated failure away from losing both
    // copies. The penalty dominates load and locality but yields to the
    // suspect term — a zone-diverse placement on a predicted-failing
    // worker is no diversity at all.
    const bool zone_taken =
        spread &&
        std::find(replica_zones.begin(), replica_zones.end(),
                  host.spec().zone) != replica_zones.end();
    // Lower is better: predicted-failing workers are a last resort, then
    // zone duplication, then load, then rack locality.
    const double score = (suspect ? 1e6 : 0.0) + (zone_taken ? 1e3 : 0.0) +
                         static_cast<double>(host.used_slots()) * 10.0 +
                         (near_functions ? 0.0 : 1.0);
    if (!best || score < best_score) {
      best = node;
      best_score = score;
    }
  }
  if (best) return best;
  // Cluster full of this runtime's replicas already: allow doubling up.
  return cluster.least_loaded(memory);
}

void ReplicationModule::reconcile(faas::RuntimeImage image) {
  if (!config_.enabled) return;
  const unsigned desired = target_replicas(image);
  std::size_t live = manager_.active_count(image) + manager_.pending_count(image);

  // Hysteresis on the downscale side: retiring on every census wiggle
  // thrashes containers (launch + retire churn eats node slots and
  // cold-start bandwidth). Only shed clearly-excess replicas; idle ones
  // below the band are cheap relative to the churn.
  const std::size_t retire_band =
      desired == 0 ? 0 : desired + std::max<std::size_t>(1, desired / 4);
  while (live > retire_band) {
    const auto container = manager_.retire_one(image);
    if (!container) break;  // the excess is still launching; leave it
    platform_.destroy_warm_container(*container);
    metrics_.count("replicas_retired");
    --live;
  }

  while (live < desired) {
    const auto node = place_replica(image);
    if (!node) break;  // no capacity anywhere
    auto launched = platform_.launch_warm_container(
        *node, image, faas::ContainerPurpose::kRuntimeReplica);
    if (!launched.ok()) break;
    manager_.register_replica(image, launched.value());
    metrics_.count("replicas_launched");
    ++live;
  }
}

}  // namespace canary::core

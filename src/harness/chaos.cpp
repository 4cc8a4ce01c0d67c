#include "harness/chaos.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/rng.hpp"

namespace canary::harness {

namespace {

// ChaosSpec::scaled: twice the base load per node on a 4x cluster.
constexpr unsigned kScaledJobs = 8;
constexpr unsigned kScaledNodes = 4;

faas::RuntimeImage pick_runtime(Rng& rng) {
  static constexpr faas::RuntimeImage kPool[] = {
      faas::RuntimeImage::kPython3,
      faas::RuntimeImage::kNodeJs14,
      faas::RuntimeImage::kDlTrain,
      faas::RuntimeImage::kDbQuery,
  };
  return kPool[rng.uniform_int(0, 3)];
}

// The base scenario, from child(1..3) of the seed: independent streams per
// concern, so adding a fault class never perturbs how the workload itself
// is drawn.
void draw_base(ChaosScenario& out, const Rng& root, unsigned job_scale) {
  ScenarioConfig& cfg = out.config;
  Rng shape = root.child(1);
  Rng jobs_rng = root.child(2);
  Rng faults = root.child(3);

  cfg.cluster_nodes = shape.uniform_int(6, 12);
  cfg.error_rate = shape.uniform(0.05, 0.30);
  cfg.injection_mode = failure::InjectionMode::kHazardRate;

  cfg.strategy = recovery::StrategyConfig::canary_full();
  cfg.strategy.canary.sla_aware = shape.bernoulli(0.5);
  cfg.strategy.canary.recovery_action_timeout =
      Duration::sec(shape.uniform(1.0, 3.0));

  cfg.detection.enabled = true;
  cfg.detection.heartbeat_interval =
      Duration::msec(shape.uniform_int(200, 800));
  cfg.detection.timeout_multiplier = shape.uniform(2.0, 4.0);
  cfg.detection.confirm_multiplier = shape.uniform(1.0, 3.0);
  cfg.detection.sweep_interval = Duration::msec(shape.uniform_int(50, 150));
  cfg.detection.horizon = Duration::sec(1200.0);

  if (shape.bernoulli(0.3)) {
    cfg.kv.mode = kv::CacheMode::kPartitioned;
    cfg.kv.backups = 1;
    cfg.kv.native_persistence = shape.bernoulli(0.5);
  }

  // ---- workload ---------------------------------------------------------
  const std::size_t job_count = jobs_rng.uniform_int(2, 4) * job_scale;
  for (std::size_t j = 0; j < job_count; ++j) {
    faas::JobSpec job;
    job.name = "chaos-job-" + std::to_string(j);
    job.account = AccountId{1};
    const std::size_t fn_count = jobs_rng.uniform_int(4, 10);
    Duration longest = Duration::zero();
    for (std::size_t f = 0; f < fn_count; ++f) {
      faas::FunctionSpec fn;
      fn.name = "chaos-fn-" + std::to_string(j) + "-" + std::to_string(f);
      fn.runtime = pick_runtime(jobs_rng);
      const std::size_t state_count = jobs_rng.uniform_int(2, 4);
      Duration work = Duration::zero();
      std::vector<faas::StateSpec> states;
      states.reserve(state_count);
      for (std::size_t s = 0; s < state_count; ++s) {
        faas::StateSpec state;
        state.duration = Duration::msec(jobs_rng.uniform_int(300, 1500));
        state.checkpoint_payload =
            Bytes::of(jobs_rng.uniform_int(512, 2048) * 1024);
        work += state.duration;
        states.push_back(state);
      }
      fn.states = std::move(states);
      fn.finalize = Duration::msec(jobs_rng.uniform_int(100, 300));
      work += fn.finalize;
      if (work > longest) longest = work;
      // Occasional chains exercise the trigger graph under faults.
      if (f > 0 && jobs_rng.bernoulli(0.3)) {
        fn.depends_on.push_back(f - 1);
      }
      job.functions.push_back(std::move(fn));
    }
    if (jobs_rng.bernoulli(0.5)) {
      job.sla = longest * 3.0 + Duration::sec(20.0);
    }
    out.jobs.push_back(std::move(job));
  }

  // ---- fault schedule ---------------------------------------------------
  const std::size_t node_failures = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < node_failures; ++i) {
    cfg.node_failure_offsets.push_back(
        Duration::sec(faults.uniform(2.0, 20.0)));
  }

  const std::size_t gray_count = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < gray_count; ++i) {
    ScenarioConfig::GrayFailure gray;
    gray.at = Duration::sec(faults.uniform(1.0, 15.0));
    gray.duration = Duration::sec(faults.uniform(2.0, 6.0));
    gray.slowdown = faults.uniform(3.0, 8.0);
    cfg.gray_failures.push_back(gray);
  }

  const std::size_t hb_count = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < hb_count; ++i) {
    failure::FailureInjector::HeartbeatFault fault;
    fault.start = TimePoint::origin() + Duration::sec(faults.uniform(1.0, 15.0));
    fault.duration = Duration::sec(faults.uniform(1.0, 4.0));
    // Delays up to ~80% of the confirm threshold: long enough to trigger
    // suspicions (false ones included), short enough that live workers
    // are eventually un-suspected rather than fenced en masse.
    const double max_mult = 0.8 * (cfg.detection.timeout_multiplier +
                                   cfg.detection.confirm_multiplier);
    fault.delay = cfg.detection.heartbeat_interval *
                  faults.uniform(0.0, max_mult);
    fault.drop_rate = faults.uniform(0.0, 0.6);
    // Scope each window to one worker. A cluster-wide drop window longer
    // than the confirm threshold would fence every node at once — the
    // detector behaving exactly as specified, but leaving zero capacity
    // to recover onto, which no strategy can survive.
    fault.node = NodeId{faults.uniform_int(1, cfg.cluster_nodes)};
    cfg.heartbeat_faults.push_back(fault);
    if (fault.delay > out.max_heartbeat_delay) {
      out.max_heartbeat_delay = fault.delay;
    }
  }

  const std::size_t store_count = faults.uniform_int(0, 2);
  for (std::size_t i = 0; i < store_count; ++i) {
    ScenarioConfig::StoreFault fault;
    fault.at = Duration::sec(faults.uniform(3.0, 18.0));
    fault.lose = static_cast<unsigned>(faults.uniform_int(0, 2));
    fault.corrupt = static_cast<unsigned>(faults.uniform_int(0, 2));
    if (fault.lose == 0 && fault.corrupt == 0) fault.corrupt = 1;
    cfg.store_faults.push_back(fault);
  }
}

// An on/off burst stream driven through admission control and the
// warm-pool autoscaler. The runner seeds the arrival process from the
// same child(4) stream.
void add_traffic(ScenarioConfig& config, Rng traffic) {
  traffic::TrafficConfig& cfg = config.traffic;
  cfg.enabled = true;
  cfg.horizon = Duration::sec(traffic.uniform(12.0, 18.0));

  traffic::StreamConfig stream;
  stream.name = "chaos-burst";
  stream.fn.runtime = pick_runtime(traffic);
  const std::size_t state_count = traffic.uniform_int(1, 2);
  std::vector<faas::StateSpec> states;
  states.reserve(state_count);
  for (std::size_t s = 0; s < state_count; ++s) {
    faas::StateSpec state;
    state.duration = Duration::msec(traffic.uniform_int(100, 400));
    state.checkpoint_payload = Bytes::of(traffic.uniform_int(64, 512) * 1024);
    states.push_back(state);
  }
  stream.fn.states = std::move(states);
  stream.fn.finalize = Duration::msec(traffic.uniform_int(30, 100));
  stream.arrival.kind = traffic::ArrivalSpec::Kind::kOnOff;
  stream.arrival.rate_hz = traffic.uniform(8.0, 18.0);
  stream.arrival.off_rate_hz = traffic.uniform(0.0, 2.0);
  stream.arrival.on_mean = Duration::sec(traffic.uniform(1.0, 3.0));
  stream.arrival.off_mean = Duration::sec(traffic.uniform(1.0, 3.0));
  if (traffic.bernoulli(0.5)) {
    stream.sla = Duration::sec(traffic.uniform(4.0, 10.0));
  }
  stream.admission.max_concurrent = traffic.uniform_int(4, 8);
  stream.admission.queue_capacity = traffic.uniform_int(8, 24);
  cfg.streams.push_back(std::move(stream));

  cfg.autoscaler.enabled = true;
  cfg.autoscaler.max_warm = traffic.uniform_int(4, 8);
  cfg.autoscaler.max_step = 2;

  // One node failure guaranteed to land inside the burst window, so every
  // seed exercises shed/queue accounting concurrent with recovery.
  config.node_failure_offsets.push_back(
      Duration::sec(traffic.uniform(4.0, 10.0)));
}

recovery::HedgeConfig draw_hedge_config(Rng& hedge) {
  recovery::HedgeConfig cfg;
  cfg.percentile = hedge.uniform(80.0, 97.0);
  cfg.min_samples = hedge.uniform_int(4, 12);
  cfg.initial_delay = Duration::msec(hedge.uniform_int(300, 1500));
  cfg.max_outstanding = hedge.uniform_int(4, 16);
  // Half the seeds retry with a backoff, opening the window in which a
  // hedge can fire while its primary is down.
  if (hedge.bernoulli(0.5)) {
    cfg.retry_backoff = Duration::msec(hedge.uniform_int(50, 400));
  }
  return cfg;
}

// A gray window manufactures the stragglers that make hedges fire, and an
// extra node failure is guaranteed to land inside the racing phase — the
// clone (or its primary) dies mid-race on every hedged seed.
void add_stragglers(ScenarioConfig& config, Rng& stragglers) {
  ScenarioConfig::GrayFailure gray;
  gray.at = Duration::sec(stragglers.uniform(0.5, 3.0));
  gray.duration = Duration::sec(stragglers.uniform(3.0, 8.0));
  gray.slowdown = stragglers.uniform(3.0, 8.0);
  config.gray_failures.push_back(gray);
  config.node_failure_offsets.push_back(
      Duration::sec(stragglers.uniform(2.0, 8.0)));
}

// Partition/zone/heal storms: long zone bipartitions, an optional short
// asymmetric window and an optional correlated zone outage.
void add_partition(ScenarioConfig& cfg, Rng part) {
  // Re-size the cluster so cutting the last (smallest) fault domain
  // always leaves a strict majority in the worst case. Ten nodes put two
  // in the last zone (testbed racks hold four); even with every other
  // possible death landing outside it — two base kills, two node-scoped
  // heartbeat-fault fences, the asymmetric window's victim — five alive
  // nodes remain, of which three reach each other: still more than the
  // two cut off. Eleven or twelve nodes would widen the cut zone enough
  // for that same worst case to deadlock both sides below quorum.
  cfg.cluster_nodes = 10;
  const std::uint32_t cut_zone =
      static_cast<std::uint32_t>((cfg.cluster_nodes - 1) / 4);

  // Tighten detection so every zone cut outlasts the confirm threshold:
  // bound <= 400ms * (1 + 3 + 2) + 2*150ms = 2.7s, below the shortest
  // window. The majority side fences-and-redeploys while the minority
  // keeps executing — the zombie-commit probe fires on every such seed.
  cfg.detection.heartbeat_interval =
      Duration::msec(part.uniform_int(200, 400));
  cfg.detection.timeout_multiplier = part.uniform(2.0, 3.0);
  cfg.detection.confirm_multiplier = part.uniform(1.0, 2.0);

  // Half the seeds exercise fault-domain-aware placement, half the
  // domain-blind baseline — the oracles must hold for both.
  cfg.fault_domain_spread = part.bernoulli(0.5);

  const std::size_t cut_count = part.uniform_int(1, 2);
  for (std::size_t i = 0; i < cut_count; ++i) {
    ScenarioConfig::PartitionFault window;
    window.at = Duration::sec(part.uniform(1.0, 6.0));
    window.duration = Duration::sec(part.uniform(4.0, 10.0));
    window.zone = cut_zone;
    cfg.partitions.push_back(window);
  }

  // An optional short asymmetric window: one victim loses its outbound
  // path only (one-way heartbeat loss). Shorter than the confirm
  // threshold on most draws, so the suspicion it raises must cancel
  // cleanly when the window heals instead of fencing a live node.
  if (part.bernoulli(0.7)) {
    ScenarioConfig::PartitionFault window;
    window.at = Duration::sec(part.uniform(1.0, 8.0));
    window.duration = Duration::sec(part.uniform(0.4, 1.6));
    const NodeId victim{part.uniform_int(1, cfg.cluster_nodes)};
    window.from.push_back(victim);
    for (std::size_t n = 1; n <= cfg.cluster_nodes; ++n) {
      if (NodeId{n} != victim) window.to.push_back(NodeId{n});
    }
    window.symmetric = false;
    cfg.partitions.push_back(window);
  }

  // An optional correlated outage of the cut zone, racing the windows.
  // Landing inside a cut it kills already-fenced members (the injector's
  // overlap accounting must count them as skipped, not double deaths);
  // landing outside it turns the later cut into a window over dead nodes.
  // Targeting only the cut zone keeps the loss bounded at one domain, so
  // completion stays achievable on every seed.
  if (part.bernoulli(0.5)) {
    ScenarioConfig::ZoneOutage outage;
    outage.at = Duration::sec(part.uniform(2.0, 12.0));
    outage.zone = cut_zone;
    cfg.zone_outages.push_back(outage);
  }
}

}  // namespace

ChaosScenario make_chaos_scenario(const ChaosSpec& spec, std::uint64_t seed) {
  ChaosScenario out;
  ScenarioConfig& cfg = out.config;
  cfg.seed = seed;
  const Rng root(seed);
  draw_base(out, root, spec.scaled ? kScaledJobs : 1);
  if (spec.traffic) add_traffic(cfg, root.child(4));
  // child(5) opens with the hedge trigger config whatever the strategy,
  // so the straggler windows drawn after it are the same under every
  // strategy.
  Rng stragglers = root.child(5);
  const recovery::HedgeConfig hedge = draw_hedge_config(stragglers);
  if (spec.stragglers) add_stragglers(cfg, stragglers);
  if (spec.partition) add_partition(cfg, root.child(6));

  using recovery::StrategyConfig;
  switch (spec.strategy) {
    case recovery::StrategyKind::kCanary: break;  // drawn by the base
    case recovery::StrategyKind::kIdeal:
      cfg.strategy = StrategyConfig::ideal();
      break;
    case recovery::StrategyKind::kRetry:
      cfg.strategy = StrategyConfig::retry();
      break;
    case recovery::StrategyKind::kRequestReplication:
      cfg.strategy = StrategyConfig::request_replication();
      break;
    case recovery::StrategyKind::kActiveStandby:
      cfg.strategy = StrategyConfig::active_standby();
      break;
    case recovery::StrategyKind::kHedge:
      cfg.strategy = StrategyConfig::hedged(hedge);
      break;
  }

  // Grow the cluster last: every fault node id and zone was drawn against
  // the unscaled cluster, so each stays in range (and, sharded, inside
  // every partition's slice, zone windows and outages included).
  cfg.cluster_nodes *= (spec.scaled ? kScaledNodes : 1) * spec.partitions;
  if (spec.partitions > 1) {
    cfg.sharding.partitions = spec.partitions;
    cfg.sharding.workers = spec.partitions;
  }
  return out;
}

double ChaosOutcome::total(std::string_view key) const {
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (key == kChaosTotals[i].key) return totals[i];
  }
  CANARY_CHECK(false, "unknown chaos total");
  return 0.0;
}

namespace {

struct OracleCheck {
  std::vector<std::string> violations;
  double max_detection_latency_s = 0.0;
  Duration detection_bound = Duration::zero();
};

OracleCheck check_oracles(const ChaosScenario& scenario,
                          const RunResult& result) {
  OracleCheck check;
  std::vector<std::string>& violations = check.violations;
  auto violate = [&violations](const std::string& what) {
    violations.push_back(what);
  };

  // Node failures in heartbeat mode are confirmed within
  // interval*(timeout+confirm) of the death plus sweep granularity and
  // any injected delivery delay (a delayed beat can un-suspect once
  // before re-confirmation).
  const auto& det = scenario.config.detection;
  check.detection_bound =
      det.heartbeat_interval *
          (1.0 + det.timeout_multiplier + det.confirm_multiplier) +
      det.sweep_interval * 2.0 + scenario.max_heartbeat_delay;

  // Sharded runs: every oracle must hold within each partition —
  // function ids and causal trace ids are partition-local, so the
  // event-derived oracles (exactly-once, detection bound, hedge event
  // identities) are only meaningful per shard. The merged result carries
  // no event log of its own, so falling through below re-checks just the
  // scalar oracles across the reduction.
  for (std::size_t i = 0; i < result.shards.size(); ++i) {
    const OracleCheck shard = check_oracles(scenario, *result.shards[i]);
    for (const std::string& violation : shard.violations) {
      violations.push_back("shard " + std::to_string(i) + ": " + violation);
    }
    check.max_detection_latency_s = std::max(check.max_detection_latency_s,
                                             shard.max_detection_latency_s);
  }

  const auto count = [&result](const char* name) {
    return static_cast<std::uint64_t>(result.metrics.counter(name));
  };
  const auto level = [&result](const char* name) {
    return static_cast<std::uint64_t>(result.metrics.gauge(name));
  };
  // Oracles 7 and 8 check monolithic results only. A sharded run has
  // already checked them in every partition above, both identities are
  // closed under addition, and a merged registry keeps only the last
  // partition's gauges.
  const bool monolithic = result.shards.empty();
  const bool hedged =
      monolithic &&
      scenario.config.strategy.kind == recovery::StrategyKind::kHedge;
  const std::uint64_t hedges_fired = count("hedges_fired");
  const std::uint64_t hedge_wins = count("hedge_wins");
  const std::uint64_t hedges_cancelled = count("hedges_cancelled");

  // 1. Completion: recovery terminated and every job finished.
  if (!result.completed) {
    violate("completion: run ended with incomplete jobs");
  }

  // 6. No stranded failures awaiting detection.
  if (result.undetected_failures != 0) {
    std::ostringstream os;
    os << "stranded: " << result.undetected_failures
       << " node failure(s) never confirmed by the detector";
    violate(os.str());
  }

  // 3. A corrupt checkpoint must never be selected for restore.
  if (count("restored_corrupt_checkpoints") > 0) {
    violate("corrupt-restore: a damaged checkpoint was selected");
  }

  // 5. Usage ledger balances.
  if (result.usage_unbalanced != 0) {
    std::ostringstream os;
    os << "ledger: " << result.usage_unbalanced
       << " unbalanced usage record(s)";
    violate(os.str());
  }

  // 7. Traffic conservation: exactly-once accounting for every arrival.
  if (monolithic && scenario.config.traffic.enabled) {
    const std::uint64_t offered = count("traffic_offered");
    const std::uint64_t admitted = count("traffic_admitted");
    const std::uint64_t shed = count("traffic_shed");
    const std::uint64_t completed = count("traffic_completed");
    const std::uint64_t in_flight = level("traffic_in_flight_end");
    const std::uint64_t queued_end = level("traffic_queued_end");
    if (offered != admitted + shed + queued_end ||
        admitted != completed + in_flight) {
      std::ostringstream os;
      os << "conservation: offered=" << offered << " admitted=" << admitted
         << " shed=" << shed << " completed=" << completed
         << " in_flight=" << in_flight << " queued_end=" << queued_end;
      violate(os.str());
    }
    if (result.completed && (in_flight != 0 || queued_end != 0)) {
      std::ostringstream os;
      os << "conservation: completed run left " << in_flight
         << " arrival(s) in flight and " << queued_end << " queued";
      violate(os.str());
    }
  }

  // 8. Hedge exactly-once: every fired hedge resolves exactly once. The
  // open count is the handler's own tally of unresolved races, never
  // derived from the counters.
  if (hedged) {
    const std::uint64_t open = level("hedge_open_races");
    if (hedges_fired != hedge_wins + hedges_cancelled + open) {
      std::ostringstream os;
      os << "hedge-exactly-once: fired=" << hedges_fired
         << " != wins=" << hedge_wins << " + cancelled=" << hedges_cancelled
         << " + open=" << open;
      violate(os.str());
    }
    if (result.completed && open != 0) {
      std::ostringstream os;
      os << "hedge-exactly-once: completed run left " << open
         << " race(s) open";
      violate(os.str());
    }
  }

  // 9. No split brain: a logically fenced minority-side zombie finishes
  // executing, but every commit it attempts must be rejected at the
  // store's epoch gate. Together with oracle 2 (one kComplete per
  // function) this bounds committed side effects at one per invocation.
  const std::uint64_t zombie_attempts = count("zombie_commit_attempts");
  const std::uint64_t zombie_committed = count("zombie_commits_committed");
  const std::uint64_t zombie_rejected = count("zombie_commits_rejected");
  if (zombie_committed > 0) {
    std::ostringstream os;
    os << "no-split-brain: " << zombie_committed
       << " fenced-writer commit(s) reached the store";
    violate(os.str());
  }
  if (zombie_attempts != zombie_committed + zombie_rejected) {
    std::ostringstream os;
    os << "no-split-brain: " << zombie_attempts << " zombie attempt(s) != "
       << zombie_rejected << " rejected + " << zombie_committed
       << " committed";
    violate(os.str());
  }

  // 10. Heal convergence: every partition heals, and every worker the
  // detector confirmed dead is fenced. The fence check runs on every run;
  // without a detector it holds trivially.
  const failure::FaultTotals& injected = result.injected;
  if (injected.partitions_started > 0 || injected.zone_outages > 0) {
    if (injected.partitions_healed != injected.partitions_started) {
      std::ostringstream os;
      os << "heal-convergence: " << injected.partitions_started
         << " partition(s) started but " << injected.partitions_healed
         << " healed";
      violate(os.str());
    }
    if (result.partitions_active_end != 0) {
      std::ostringstream os;
      os << "heal-convergence: " << result.partitions_active_end
         << " reachability rule(s) still active at end of run";
      violate(os.str());
    }
  }
  if (!result.confirmed_workers_fenced) {
    violate(
        "heal-convergence: a worker the detector confirmed dead is not "
        "fenced");
  }

  // 2 + 4 (and 8's event identities) need the causal event log; a
  // truncated log cannot prove any of them.
  if (result.events == nullptr || result.events->truncated()) {
    return check;
  }
  const obs::EventLog& events = *result.events;

  if (hedged) {
    const std::size_t hedged_events =
        result.events->count_of(obs::EventKind::kHedged);
    const std::size_t cancelled_events =
        result.events->count_of(obs::EventKind::kHedgeCancelled);
    if (hedged_events != hedges_fired) {
      std::ostringstream os;
      os << "hedge-exactly-once: " << hedged_events << " kHedged event(s) vs "
         << hedges_fired << " fired";
      violate(os.str());
    }
    // Every resolved race emits exactly one kHedgeCancelled — on the
    // primary when the clone won, on the clone otherwise.
    if (cancelled_events != hedge_wins + hedges_cancelled) {
      std::ostringstream os;
      os << "hedge-exactly-once: " << cancelled_events
         << " kHedgeCancelled event(s) vs " << hedge_wins + hedges_cancelled
         << " resolved race(s)";
      violate(os.str());
    }
  }

  // 2. Exactly-once: every submitted function completes exactly once.
  std::unordered_map<FunctionId, int> submits;
  std::unordered_map<FunctionId, int> completes;
  for (const obs::Event& event : events) {
    if (event.kind() == obs::EventKind::kSubmit && event.function().valid()) {
      ++submits[event.function()];
    }
    if (event.kind() == obs::EventKind::kComplete &&
        event.function().valid()) {
      ++completes[event.function()];
    }
  }
  for (const auto& [fn, count] : completes) {
    if (count != 1) {
      std::ostringstream os;
      os << "exactly-once: function " << to_string(fn) << " completed "
         << count << " times";
      violate(os.str());
    }
  }
  if (result.completed) {
    for (const auto& [fn, count] : submits) {
      (void)count;
      if (completes.find(fn) == completes.end()) {
        std::ostringstream os;
        os << "exactly-once: function " << to_string(fn)
           << " submitted but never completed";
        violate(os.str());
      }
    }
  }

  // 4. Detection latency bounded: node failures in heartbeat mode by the
  // heartbeat bound above; every other failure kind uses the constant
  // invoker/oracle delay. kRecoveryStall is controller-initiated and
  // detected instantly.
  const Duration epsilon = Duration::msec(100);
  const Duration heartbeat_bound = check.detection_bound + epsilon;
  const Duration oracle_bound = faas::kFailureDetectDelay + epsilon;
  // Per-trace time of the most recent unresolved failure.
  std::unordered_map<std::uint64_t, std::pair<TimePoint, bool>> open_failures;
  for (const obs::Event& event : events) {
    if (event.kind() == obs::EventKind::kFailure) {
      open_failures[event.trace().value()] = {
          event.at(), event.name() == obs::Name::kNodeFailure};
    } else if (event.kind() == obs::EventKind::kDetect) {
      auto it = open_failures.find(event.trace().value());
      if (it == open_failures.end()) continue;
      const Duration latency = event.at() - it->second.first;
      const bool node_level = it->second.second;
      open_failures.erase(it);
      check.max_detection_latency_s =
          std::max(check.max_detection_latency_s, latency.to_seconds());
      const Duration bound =
          node_level && det.enabled ? heartbeat_bound : oracle_bound;
      if (latency > bound) {
        std::ostringstream os;
        os << "detection-bound: " << latency.to_seconds() << "s > "
           << bound.to_seconds() << "s ("
           << (node_level ? "node failure" : "local failure") << ")";
        violate(os.str());
      }
    }
  }
  return check;
}

}  // namespace

std::vector<std::string> chaos_oracles(const ChaosScenario& scenario,
                                       const RunResult& result) {
  return check_oracles(scenario, result).violations;
}

ChaosOutcome run_chaos_scenario(const ChaosSpec& spec, std::uint64_t seed) {
  const ChaosScenario scenario = make_chaos_scenario(spec, seed);
  const RunResult result = ScenarioRunner::run(scenario.config, scenario.jobs);

  ChaosOutcome out;
  out.seed = seed;
  out.completed = result.completed;
  out.makespan_s = result.makespan_s;
  for (std::size_t i = 0; i < out.totals.size(); ++i) {
    const ChaosTotal& total = kChaosTotals[i];
    out.totals[i] = total.read != nullptr ? total.read(result)
                                          : result.metrics.counter(total.key);
  }
  OracleCheck check = check_oracles(scenario, result);
  out.max_detection_latency_s = check.max_detection_latency_s;
  out.detection_bound_s = check.detection_bound.to_seconds();
  out.violations = std::move(check.violations);
  return out;
}

}  // namespace canary::harness

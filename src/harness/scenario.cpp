#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "harness/scenario_internal.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "sim/simulator.hpp"

namespace canary::harness {
namespace internal {
namespace {

faas::PlatformConfig effective_platform_config(const ScenarioConfig& config) {
  faas::PlatformConfig platform_config = config.platform;
  if (config.detection.enabled) {
    // Heartbeat detection replaces the constant-delay oracle for
    // node-level failures; detection latency becomes emergent.
    platform_config.detection_mode = faas::DetectionMode::kHeartbeat;
  }
  if (config.traffic.enabled) {
    // Open-loop traffic needs pool adoption: without container reuse the
    // autoscaler's prewarmed containers could never serve an invocation.
    platform_config.reuse_containers = true;
  }
  return platform_config;
}

// Non-owning alias of a caller-owned batch spec. The scenario job list
// outlives the platform run, so submission can share each spec in place —
// no deep copy, and (via the aliasing constructor's empty owner) no
// control-block allocation either.
std::shared_ptr<const faas::JobSpec> borrow(const faas::JobSpec& job) {
  return std::shared_ptr<const faas::JobSpec>(std::shared_ptr<const void>(),
                                              &job);
}

const faas::JobSpec& spec_of(const faas::JobSpec& spec) { return spec; }
const faas::JobSpec& spec_of(const std::shared_ptr<const faas::JobSpec>& spec) {
  return *spec;
}

}  // namespace

ScenarioInstance::ScenarioInstance(sim::Simulator& sim,
                                   const ScenarioConfig& cfg,
                                   const std::vector<faas::JobSpec>& jobs,
                                   bool install_log_hooks)
    : config(cfg),
      simulator(sim),
      cluster(cluster::Cluster::testbed(config.cluster_nodes)),
      network(&cluster, {}),
      storage(config.storage.value_or(cluster::StorageHierarchy::testbed())),
      store(config.kv, cluster.node_ids()),
      metrics(),
      platform(simulator, cluster, network, effective_platform_config(config),
               metrics) {
  using recovery::StrategyKind;

  if (config.record_events || config.record_spans || config.attribution) {
    events = std::make_shared<obs::EventLog>();
    platform.set_event_log(events.get());
  }

  // Writer-attributed KV commits route through the reachability model: a
  // writer cut off from the quorum cannot commit. With no partition rules
  // installed reaches_majority short-circuits to true, so this gate is
  // free (and byte-identical) for every pre-partition scenario.
  store.set_writer_quorum(
      [&net = network](NodeId writer) { return net.reaches_majority(writer); });
  // Fault-domain spreading has one owner, the cluster: platform, Canary
  // and replication placement read it there. The KV store's zone-aware
  // owner choice is on exactly when its zone map is installed.
  cluster.set_spread_fault_domains(config.fault_domain_spread);
  if (config.fault_domain_spread) {
    store.set_zone_map([&c = cluster](NodeId node) { return c.zone_of(node); });
  }

  // While this run is live, this thread's log records carry the simulated
  // time and kWarn+ records mirror into the causal log as annotations.
  // A run stays on the thread that built it, so parallel runs don't mix.
  if (install_log_hooks) {
    log_clock.emplace(
        [this] { return simulator.now().count_usec(); });
    log_mirror.emplace([this](LogLevel, const std::string& msg) {
      if (events == nullptr) return;
      events->append_raw(events->new_trace(), obs::kNoEvent,
                         obs::EventKind::kAnnotation, events->intern(msg),
                         simulator.now());
    });
  }

  const bool ideal = config.strategy.kind == StrategyKind::kIdeal;
  failure::InjectorConfig injector_config;
  injector_config.error_rate = ideal ? 0.0 : config.error_rate;
  injector_config.mode = config.injection_mode;
  injector.emplace(Rng(config.seed), injector_config);
  platform.set_failure_policy(&*injector);

  if (config.detection.enabled) {
    detector.emplace(simulator, platform, config.detection);
    detector->set_fault_provider(&*injector);
  }

  switch (config.strategy.kind) {
    case StrategyKind::kIdeal:
    case StrategyKind::kRetry:
      retry.emplace(platform);
      platform.set_recovery_handler(&*retry);
      break;
    case StrategyKind::kCanary:
      canary_fw.emplace(platform, store, storage, config.strategy.canary);
      canary_fw->install();
      if (detector) canary_fw->attach_detector(*detector);
      break;
    case StrategyKind::kRequestReplication:
      rr.emplace(platform, config.strategy.rr_replicas);
      platform.set_recovery_handler(&*rr);
      platform.add_observer(&*rr);
      break;
    case StrategyKind::kActiveStandby:
      as.emplace(platform);
      platform.set_recovery_handler(&*as);
      platform.add_observer(&*as);
      break;
    case StrategyKind::kHedge:
      hedge.emplace(platform, config.strategy.hedge);
      platform.set_recovery_handler(&*hedge);
      platform.add_observer(&*hedge);
      break;
  }

  // The one route every job takes, batch job or traffic arrival: the
  // Canary control plane when it is installed, so the Request Validator
  // sees the offered load too; request replication's expansion, which
  // keeps the logical function first (name intact) so the traffic
  // generator's name-based arrival binding still matches; else the
  // platform. Batch jobs come borrowed, arrivals owned.
  const auto submit = [this](auto spec) -> Result<JobId> {
    if (canary_fw.has_value()) return canary_fw->submit_job(std::move(spec));
    if (rr.has_value()) {
      auto submitted = platform.submit_job(rr->expand_job(spec_of(spec)));
      if (submitted.ok()) rr->track_job(submitted.value());
      return submitted;
    }
    return platform.submit_job(std::move(spec));
  };
  for (const auto& job : jobs) {
    const Result<JobId> submitted = submit(borrow(job));
    CANARY_CHECK(submitted.ok(), "job submission failed");
  }

  // Open-loop traffic rides on top of (or instead of) the batch jobs.
  if (config.traffic.enabled && !config.traffic.streams.empty()) {
    // An independent child stream keeps the arrival draws from perturbing
    // the failure injector, which consumes Rng(seed) directly.
    traffic_gen.emplace(simulator, platform, config.traffic, submit,
                        Rng(config.seed).child(4));
    platform.add_observer(&*traffic_gen);
    if (config.traffic.autoscaler.enabled) {
      autoscaler.emplace(simulator, platform, *traffic_gen);
      platform.add_observer(&*autoscaler);
      autoscaler->start();
    }
    if (hedge.has_value()) {
      // Route the hedge budget through admission control: each stream's
      // per-class budget gates its requests' clones, so speculation can
      // never push a saturated class past its concurrency limit.
      hedge->set_budget_hooks(
          [tg = &*traffic_gen](JobId job) { return tg->try_hedge(job); },
          [tg = &*traffic_gen](JobId job) { tg->hedge_resolved(job); });
    }
    if (detector) {
      // An idle gap between bursts can complete every submitted job; the
      // detector must keep watching until no arrival is left to come.
      detector->set_pending_work(
          [tg = &*traffic_gen] { return !tg->quiescent(); });
    }
    traffic_gen->start();
  }

  // The ideal scenario is failure-free by definition (§V-B) — node-level
  // failures apply only to the fault-exposed strategies.
  if (!ideal) {
    for (const Duration offset : config.node_failure_offsets) {
      injector->schedule_node_failure(simulator, platform, &store,
                                      TimePoint::origin() + offset);
    }
    for (const auto& correlated : config.correlated_node_failures) {
      injector->schedule_correlated_node_failure(
          simulator, platform, &store, TimePoint::origin() + correlated.at,
          correlated.precursor_kills, correlated.precursor_window);
    }
    for (const auto& gray : config.gray_failures) {
      injector->schedule_gray_window(simulator, platform,
                                     TimePoint::origin() + gray.at,
                                     gray.duration, gray.slowdown, gray.node);
    }
    for (const auto& fault : config.heartbeat_faults) {
      injector->add_heartbeat_fault(fault);
    }
    for (const auto& fault : config.store_faults) {
      injector->schedule_store_fault(simulator, platform, store,
                                     TimePoint::origin() + fault.at,
                                     fault.lose, fault.corrupt);
    }
    for (const auto& part : config.partitions) {
      if (part.zone.has_value()) {
        injector->schedule_zone_partition(simulator, platform,
                                          TimePoint::origin() + part.at,
                                          part.duration, *part.zone);
      } else {
        injector->schedule_partition(simulator, platform,
                                     TimePoint::origin() + part.at,
                                     part.duration, part.from, part.to,
                                     part.symmetric);
      }
    }
    for (const auto& outage : config.zone_outages) {
      injector->schedule_zone_outage(simulator, platform, &store,
                                     TimePoint::origin() + outage.at,
                                     outage.zone);
    }
  }

  if (detector) detector->start();
}

RunResult ScenarioInstance::collect() {
  platform.finalize_usage();

  RunResult result;
  result.completed = platform.all_jobs_completed();
  if (!result.completed) {
    CANARY_LOG_ERROR("scenario ended with incomplete jobs (strategy="
                     << config.strategy.label() << ")");
  }
  result.simulated_events = simulator.executed_events();

  TimePoint last_completion = TimePoint::origin();
  double recoveries = 0.0;
  for (const FunctionId id : platform.all_function_ids()) {
    const auto& inv = platform.invocation(id);
    if (inv.completion_time != TimePoint::max() &&
        inv.completion_time > last_completion) {
      last_completion = inv.completion_time;
    }
    result.total_recovery_s += inv.recovery_time.to_seconds();
    result.lost_work_s += inv.lost_work.to_seconds();
    result.failures += inv.failures;
  }
  recoveries = metrics.counter("recoveries");
  for (const JobId job : platform.all_job_ids()) {
    const auto& spec = platform.job_spec(job);
    if (spec.sla <= Duration::zero()) continue;
    result.sla_jobs += 1.0;
    if (!platform.job_completed(job) ||
        platform.job_completion_time(job) >
            platform.job_submit_time(job) + spec.sla) {
      result.sla_violations += 1.0;
    }
  }
  result.makespan_s = (last_completion - TimePoint::origin()).to_seconds();
  result.mean_recovery_s =
      recoveries > 0.0 ? result.total_recovery_s / recoveries : 0.0;

  result.cost = cost::CostModel{}.breakdown(platform.usage());
  result.cost_usd = result.cost.total_usd;
  result.counters = metrics.counters();

  // Usage-ledger balance: every interval non-negative and the per-purpose
  // split summing to the total (the chaos campaign's billing oracle).
  const auto& ledger = platform.usage();
  result.usage_records = ledger.records().size();
  for (const auto& record : ledger.records()) {
    if (record.end < record.start) ++result.usage_unbalanced;
  }
  result.usage_gb_seconds = ledger.total_gb_seconds();
  {
    double split = 0.0;
    for (int p = 0; p < 4; ++p) {
      split +=
          ledger.gb_seconds_for(static_cast<faas::ContainerPurpose>(p));
    }
    const double tolerance =
        1e-6 * (result.usage_gb_seconds > 1.0 ? result.usage_gb_seconds : 1.0);
    if (std::fabs(split - result.usage_gb_seconds) > tolerance) {
      ++result.usage_unbalanced;
    }
  }

  result.undetected_failures = platform.undetected_failures();
  result.injected = injector->totals();
  result.partitions_active_end = network.active_rules();
  {
    const kv::KvStats kv_stats = store.stats();
    result.kv_stale_epoch_rejects = kv_stats.stale_epoch_rejects;
    result.kv_quorum_blocked_puts = kv_stats.quorum_blocked_puts;
  }
  if (detector) {
    // The fence behind every confirmation: a confirmed worker is down in
    // the cluster (failed outright, or logically fenced when partitioned
    // away), and under Canary its late commits are stale-epoch at the KV
    // store. A death the detector never confirmed asserts nothing.
    for (const NodeId id : cluster.node_ids()) {
      if (!detector->is_confirmed_dead(id)) continue;
      if (cluster.node(id).alive() ||
          (canary_fw.has_value() && !store.node_fenced(id))) {
        result.confirmed_workers_fenced = false;
        break;
      }
    }
  }

  if (events != nullptr) {
    result.events_recorded = events->size();
    result.events_dropped = events->dropped();
    if (events->dropped() > 0) {
      for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
        const obs::EventKind kind = static_cast<obs::EventKind>(k);
        const std::size_t dropped = events->dropped_of(kind);
        if (dropped > 0) {
          result.events_dropped_by_kind[std::string(obs::to_string_view(
              kind))] = static_cast<std::uint64_t>(dropped);
        }
      }
    }
    obs::CriticalPathAnalyzer analyzer(*events);
    result.breakdown = analyzer.report(platform.slo_targets());
    if (config.attribution) {
      result.attribution = obs::Attribution{
          obs::attribute_tail(analyzer),
          obs::derive_time_series(*events, analyzer, config.cluster_nodes)};
    }
  }
  if (config.record_spans) {
    // Spans still open when the run quiesced close at the current clock.
    auto spans = std::make_shared<const std::vector<obs::Span>>(
        obs::derive_spans(*events, simulator.now()));
    result.spans_recorded = spans->size();
    result.spans_dropped = events->dropped();
    result.spans = std::move(spans);
  }
  // Run-end levels are gauges, set only on the runs that have them, so
  // every other report stays byte-identical.
  if (traffic_gen.has_value()) {
    const traffic::AdmissionController& admission = traffic_gen->admission();
    std::uint64_t queue_peak = 0;
    for (std::size_t c = 0; c < admission.class_count(); ++c) {
      queue_peak = std::max(queue_peak, admission.stats(c).queue_peak);
    }
    metrics.set_gauge("traffic_queue_peak", static_cast<double>(queue_peak));
    metrics.set_gauge("traffic_in_flight_end",
                      static_cast<double>(admission.total_in_flight()));
    metrics.set_gauge("traffic_queued_end",
                      static_cast<double>(admission.total_queued()));
  }
  if (hedge.has_value()) {
    // The hedge oracle's independent count of unresolved races.
    metrics.set_gauge("hedge_open_races",
                      static_cast<double>(hedge->open_races()));
  }
  result.metrics = std::move(metrics);
  result.events = std::move(events);
  return result;
}

}  // namespace internal

RunResult ScenarioRunner::run(const ScenarioConfig& config,
                              const std::vector<faas::JobSpec>& jobs) {
  if (config.sharding.partitions > 1) {
    return internal::run_sharded(config, jobs);
  }

  sim::Simulator simulator;
  internal::ScenarioInstance instance(simulator, config, jobs,
                                      /*install_log_hooks=*/true);
  simulator.run();
  return instance.collect();
}

}  // namespace canary::harness

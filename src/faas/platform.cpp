#include "faas/platform.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/critical_path.hpp"

namespace canary::faas {

namespace {
/// Cold-launch slowdown per additional concurrent launch on the same node,
/// capped at kContentionCap (multiplier on cold_launch).
constexpr double kColdStartContention = 0.12;
constexpr double kContentionCap = 4.0;

/// Builds the trigger graph (reverse adjacency + indegrees) and verifies
/// it is acyclic with in-range dependency indices (Kahn's algorithm).
bool build_trigger_graph(const JobSpec& spec,
                         std::vector<std::vector<std::size_t>>& dependents,
                         std::vector<std::size_t>& unmet_deps) {
  const std::size_t n = spec.functions.size();
  // Trigger-free jobs (the overwhelming batch/traffic case) keep both
  // vectors empty: acyclicity is vacuous, every function queues at
  // submit, and the job record carries no per-job graph allocations.
  bool has_deps = false;
  for (const auto& fn : spec.functions) {
    if (!fn.depends_on.empty()) {
      has_deps = true;
      break;
    }
  }
  if (!has_deps) return true;
  dependents.assign(n, {});
  unmet_deps.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t dep : spec.functions[i].depends_on) {
      if (dep >= n || dep == i) return false;
      dependents[dep].push_back(i);
      ++unmet_deps[i];
    }
  }
  std::vector<std::size_t> indegree = unmet_deps;
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::size_t done = ready.back();
    ready.pop_back();
    ++processed;
    for (const std::size_t next : dependents[done]) {
      if (--indegree[next] == 0) ready.push_back(next);
    }
  }
  return processed == n;
}

/// When an open-loop request waited in admission control before `now`,
/// its arrival instant (JobSpec::enqueued_at).
std::optional<TimePoint> queued_at(const JobSpec& spec, TimePoint now) {
  if (spec.enqueued_at == TimePoint::max() || spec.enqueued_at >= now) {
    return std::nullopt;
  }
  return spec.enqueued_at;
}

Duration work_floor(const FunctionSpec& spec, std::size_t from_state) {
  Duration floor = Duration::zero();
  for (std::size_t i = 0; i < from_state && i < spec.states.size(); ++i) {
    floor += spec.states[i].duration;
  }
  return floor;
}
}  // namespace

Platform::Platform(sim::Simulator& simulator, cluster::Cluster& cluster,
                   cluster::NetworkModel& network, PlatformConfig config,
                   obs::MetricRegistry& metrics)
    : sim_(simulator),
      cluster_(cluster),
      network_(network),
      config_(config),
      metrics_(metrics),
      inflight_launches_(cluster.size(), 0u) {}

void Platform::add_observer(PlatformObserver* observer) {
  observers_.push_back(observer);
}

obs::SpanLabels Platform::obs_labels(const InvocationInternal& inv) const {
  return obs::SpanLabels{inv.job, inv.id, inv.container, inv.node,
                         inv.attempt};
}

obs::EventId Platform::obs_event(InvocationInternal& inv, obs::EventKind kind,
                                 obs::Name name, obs::EventId cause) {
  if (events_ == nullptr) return obs::kNoEvent;
  if (!inv.trace.trace.valid()) inv.trace.trace = events_->new_trace();
  return events_->extend(inv.trace, kind, name, sim_.now(), obs_labels(inv),
                         cause);
}

void Platform::arm_slo(InvocationInternal& inv, Duration sla,
                       TimePoint anchor) {
  if (sla <= Duration::zero()) return;
  const TimePoint deadline = anchor + sla;
  ++slo_targets_;
  const FunctionId id = inv.id;
  // An arrival-anchored deadline can already be in the past when the
  // request spent longer than its SLA waiting in admission control.
  const Duration delay =
      deadline > sim_.now() ? deadline - sim_.now() : Duration::zero();
  sim_.schedule_after(delay, [this, id, deadline] {
    auto& target = internal(id);
    if (target.phase == Phase::kCompleted &&
        target.completion_time <= deadline) {
      return;
    }
    m_slo_violations_.add();
    obs_event(target, obs::EventKind::kSlaViolation, obs::Name::kSlaViolation);
  });
}

Platform::InvocationInternal& Platform::internal(FunctionId id) {
  CANARY_CHECK(id.valid() && id.value() <= invocations_.size(),
               "unknown function id");
  return invocations_[id.value() - 1];
}

const Platform::InvocationInternal& Platform::internal(FunctionId id) const {
  CANARY_CHECK(id.valid() && id.value() <= invocations_.size(),
               "unknown function id");
  return invocations_[id.value() - 1];
}

Platform::JobRecord& Platform::job_record(JobId id) {
  CANARY_CHECK(id.valid() && id.value() <= jobs_.size(), "unknown job id");
  return jobs_[id.value() - 1];
}

const Platform::JobRecord& Platform::job_record(JobId id) const {
  CANARY_CHECK(id.valid() && id.value() <= jobs_.size(), "unknown job id");
  return jobs_[id.value() - 1];
}

Container& Platform::container_ref(ContainerId id) {
  CANARY_CHECK(id.valid() && id.value() <= containers_.size(),
               "unknown container");
  return containers_[id.value() - 1];
}

const Container& Platform::container_ref(ContainerId id) const {
  CANARY_CHECK(id.valid() && id.value() <= containers_.size(),
               "unknown container");
  return containers_[id.value() - 1];
}

Container* Platform::alive_container(ContainerId id) {
  if (!id.valid() || id.value() > containers_.size()) return nullptr;
  Container& c = containers_[id.value() - 1];
  return c.alive() ? &c : nullptr;
}

Platform::InvocationInternal* Platform::attempt_guard(FunctionId id,
                                                      int attempt,
                                                      ContainerId cid) {
  auto& target = internal(id);
  if (target.attempt != attempt) return nullptr;
  if (alive_container(cid) == nullptr) return nullptr;
  return &target;
}

void Platform::warm_index_add(const Container& c) {
  warm_idle_[static_cast<std::size_t>(c.purpose)]
            [static_cast<std::size_t>(c.image)]
                .insert(c.id);
}

void Platform::warm_index_remove(const Container& c) {
  warm_idle_[static_cast<std::size_t>(c.purpose)]
            [static_cast<std::size_t>(c.image)]
                .erase(c.id);
}

void Platform::release_inflight_launch(NodeId node) {
  unsigned& inflight = inflight_launches_[node.value() - 1];
  if (inflight > 0) --inflight;
}

Result<JobId> Platform::submit_job(JobSpec spec) {
  return submit_job(std::make_shared<const JobSpec>(std::move(spec)));
}

Result<JobId> Platform::submit_job(std::shared_ptr<const JobSpec> spec_ptr) {
  CANARY_CHECK(spec_ptr != nullptr, "null job spec");
  const JobSpec& spec = *spec_ptr;
  if (spec.functions.empty()) {
    return Error::invalid_argument("job has no functions");
  }
  if (spec.functions.size() > kMaxFunctionsPerJob) {
    return Error::resource_exhausted("job exceeds max functions per job");
  }
  for (const auto& fn : spec.functions) {
    if (fn.effective_memory() > kMaxFunctionMemory) {
      return Error::resource_exhausted("function '" + fn.name +
                                       "' exceeds the memory limit");
    }
  }

  // Validate the trigger graph before creating any record: ids are slab
  // positions, so a rejected job must not consume one.
  std::vector<std::vector<std::size_t>> dependents;
  std::vector<std::size_t> unmet_deps;
  if (!build_trigger_graph(spec, dependents, unmet_deps)) {
    return Error::invalid_argument(
        "job trigger graph has a cycle or an out-of-range dependency");
  }

  const JobId job_id = new_job(std::move(spec_ptr));
  JobRecord& record = job_record(job_id);
  record.dependents = std::move(dependents);
  record.unmet_deps = std::move(unmet_deps);

  // Open-loop requests carry their admission-control arrival: the kQueued
  // root lets the analyzer attribute the pre-submission wait to the
  // queueing component, and the SLO deadline anchors at arrival instead
  // of submission.
  const std::optional<TimePoint> queued = queued_at(*record.spec, sim_.now());
  for (const auto& fn : record.spec->functions) {
    InvocationInternal& inv = new_invocation(job_id, fn);
    log_arrival(inv, obs::EventKind::kSubmit, queued);
    arm_slo(inv, fn.sla > Duration::zero() ? fn.sla : record.spec->sla,
            queued.value_or(sim_.now()));
    // Functions with open dependencies wait for their trigger; the rest
    // queue immediately (empty unmet_deps = trigger-free job).
    if (record.unmet_deps.empty() || record.unmet_deps[inv.index_in_job] == 0) {
      pending_.push_back(inv.id);
    }
  }

  for (auto* obs : observers_) obs->on_job_submitted(job_id);
  pump_pending_queue();
  return job_id;
}

Result<JobId> Platform::shed_job(JobSpec spec) {
  if (spec.functions.empty()) {
    return Error::invalid_argument("job has no functions");
  }
  const JobId job_id =
      new_job(std::make_shared<const JobSpec>(std::move(spec)));
  JobRecord& record = job_record(job_id);
  record.completed = sim_.now();
  record.remaining = 0;  // terminal at birth: nothing will ever run

  const std::optional<TimePoint> queued = queued_at(*record.spec, sim_.now());
  for (const auto& fn : record.spec->functions) {
    InvocationInternal& inv = new_invocation(job_id, fn);
    inv.completion_time = sim_.now();
    inv.phase = Phase::kShed;
    log_arrival(inv, obs::EventKind::kShed, queued);
    m_functions_shed_.add();
  }
  return job_id;
}

JobId Platform::new_job(std::shared_ptr<const JobSpec> spec) {
  JobRecord& record = jobs_.emplace_back();
  record.spec = std::move(spec);
  record.submitted = sim_.now();
  record.remaining = record.spec->functions.size();
  record.functions.reserve(record.spec->functions.size());
  return JobId{jobs_.size()};
}

Platform::InvocationInternal& Platform::new_invocation(JobId job,
                                                       const FunctionSpec& fn) {
  JobRecord& record = job_record(job);
  InvocationInternal& inv = invocations_.emplace_back();
  inv.id = FunctionId{invocations_.size()};
  inv.job = job;
  inv.spec = &fn;
  inv.index_in_job = record.functions.size();
  inv.submit_time = sim_.now();
  record.functions.push_back(inv.id);
  return inv;
}

void Platform::log_arrival(InvocationInternal& inv, obs::EventKind kind,
                           std::optional<TimePoint> queued_at) {
  if (events_ == nullptr) return;
  const obs::Name name = events_->intern(inv.spec->name);
  if (queued_at) {
    inv.trace.trace = events_->new_trace();
    events_->extend(inv.trace, obs::EventKind::kQueued, name, *queued_at,
                    obs_labels(inv));
  }
  obs_event(inv, kind, name);
}

const Invocation& Platform::invocation(FunctionId id) const {
  return internal(id);
}

const JobSpec& Platform::job_spec(JobId id) const {
  return *job_record(id).spec;
}

const std::vector<FunctionId>& Platform::job_functions(JobId id) const {
  return job_record(id).functions;
}

bool Platform::job_completed(JobId id) const {
  return job_record(id).remaining == 0;
}

bool Platform::all_jobs_completed() const {
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const JobRecord& j) { return j.remaining == 0; });
}

TimePoint Platform::job_submit_time(JobId id) const {
  return job_record(id).submitted;
}

TimePoint Platform::job_completion_time(JobId id) const {
  return job_record(id).completed;
}

std::vector<JobId> Platform::all_job_ids() const {
  // Slab order is id order, so no sort is needed.
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    ids.push_back(JobId{i + 1});
  }
  return ids;
}

std::vector<FunctionId> Platform::all_function_ids() const {
  std::vector<FunctionId> ids;
  ids.reserve(invocations_.size());
  for (std::size_t i = 0; i < invocations_.size(); ++i) {
    ids.push_back(FunctionId{i + 1});
  }
  return ids;
}

void Platform::pump_pending_queue() {
  if (pump_scheduled_ || pending_.empty()) return;
  if (running_count_ >= config_.limits.max_concurrent_invocations) return;
  pump_scheduled_ = true;
  // The controller admits one invocation per scheduler tick, which models
  // a serial controller loop and staggers mass submissions.
  sim_.schedule_after(config_.scheduler_overhead, [this] {
    pump_scheduled_ = false;
    if (pending_.empty() ||
        running_count_ >= config_.limits.max_concurrent_invocations) {
      return;
    }
    const FunctionId id = pending_.front();
    pending_.pop_front();
    auto& inv = internal(id);
    inv.counted_running = true;
    ++running_count_;
    start_attempt(id, StartSpec{});
    pump_pending_queue();
  });
}

void Platform::retry_capacity_waiters() {
  while (!capacity_waiters_.empty()) {
    auto [id, spec] = capacity_waiters_.front();
    auto& inv = internal(id);
    const Bytes memory = inv.spec->effective_memory();
    std::optional<NodeId> node = pick_node(memory, spec.node_pref);
    if (!node) return;  // still saturated; keep FIFO order
    capacity_waiters_.pop_front();
    start_cold(inv, *node, spec);
  }
}

std::optional<NodeId> Platform::pick_node(Bytes memory,
                                          std::optional<NodeId> pref) const {
  if (pref && cluster_.contains(*pref) && cluster_.node(*pref).can_host(memory)) {
    return pref;
  }
  return cluster_.least_loaded(memory);
}

void Platform::start_attempt(FunctionId id, StartSpec spec) {
  auto& inv = internal(id);
  CANARY_CHECK(inv.phase != Phase::kCompleted, "function already completed");
  CANARY_CHECK(spec.from_state <= inv.spec->states.size(),
               "restore point beyond the state sequence");

  if (inv.phase == Phase::kFailed) {
    // Work between the restore point and the failure point is lost and
    // will be redone (the in-flight partial state was accounted at kill).
    const Duration floor = work_floor(*inv.spec, spec.from_state);
    if (inv.last_failure_work > floor) {
      inv.lost_work += inv.last_failure_work - floor;
    }
  }

  if (spec.container) {
    Container& c = container_ref(*spec.container);
    CANARY_CHECK(c.warm_idle(), "container is not warm-idle");
    CANARY_CHECK(cluster_.node(c.node).alive(), "container's node is down");
    start_warm(inv, c, spec);
    return;
  }

  // Warm pool: adopt an idle same-runtime function container if reuse is
  // enabled, skipping its cold start entirely.
  if (config_.reuse_containers) {
    const auto pooled = find_warm_container(inv.spec->runtime, spec.node_pref,
                                            ContainerPurpose::kFunction);
    if (pooled) {
      m_pool_reuses_.add();
      start_warm(inv, container_ref(*pooled), spec);
      return;
    }
  }

  const Bytes memory = inv.spec->effective_memory();
  std::optional<NodeId> node = pick_node(memory, spec.node_pref);
  if (!node) {
    inv.phase = Phase::kPending;
    spec.container.reset();
    capacity_waiters_.emplace_back(id, spec);
    m_capacity_waits_.add();
    return;
  }
  start_cold(inv, *node, spec);
}

ContainerId Platform::create_container(NodeId node, RuntimeImage image,
                                       Bytes memory,
                                       ContainerPurpose purpose) {
  Container& c = containers_.emplace_back();
  c.id = ContainerId{containers_.size()};
  c.node = node;
  c.image = image;
  c.memory = memory;
  c.purpose = purpose;
  c.state = ContainerState::kLaunching;
  c.created = sim_.now();
  ledger_.open(c);
  ++inflight_launches_[node.value() - 1];
  return c.id;
}

double Platform::launch_contention_multiplier(NodeId node) const {
  const unsigned inflight = inflight_launches_[node.value() - 1];
  if (inflight <= 1) return 1.0;
  const double mult =
      1.0 + kColdStartContention * static_cast<double>(inflight - 1);
  return std::min(mult, kContentionCap);
}

Duration Platform::epilogue_nominal(const Invocation& inv,
                                    std::size_t state_idx) const {
  return hooks_ ? hooks_->state_epilogue(inv, state_idx) : Duration::zero();
}

Duration Platform::attempt_busy_estimate(const InvocationInternal& inv,
                                         const StartSpec& spec, double speed,
                                         bool cold) const {
  const auto& rt = profile(inv.spec->runtime);
  Duration est = Duration::zero();
  if (cold) {
    est += (rt.cold_launch + rt.init) * speed;
  } else {
    est += rt.warm_dispatch * speed;
  }
  est += spec.extra_setup;
  for (std::size_t i = spec.from_state; i < inv.spec->states.size(); ++i) {
    est += state_time(inv, i, speed);
  }
  est += inv.spec->finalize * speed;
  return est;
}

void Platform::arm_kill_timer(InvocationInternal& inv,
                              Duration busy_estimate) {
  inv.kill_event.cancel();
  inv.timeout_event.cancel();
  if (config_.limits.function_timeout < Duration::max()) {
    inv.timeout_event = schedule_kill(inv, config_.limits.function_timeout,
                                      FailureKind::kTimeout);
  }
  if (failure_policy_ == nullptr) return;
  const auto offset = failure_policy_->plan_kill(inv, inv.attempt, busy_estimate);
  if (!offset) return;
  inv.kill_event = schedule_kill(inv, *offset, FailureKind::kContainerKill);
}

sim::EventHandle Platform::schedule_kill(const InvocationInternal& inv,
                                         Duration delay, FailureKind kind) {
  const FunctionId id = inv.id;
  const int attempt = inv.attempt;
  return sim_.schedule_after(delay, [this, id, attempt, kind] {
    auto& target = internal(id);
    if (target.attempt != attempt) return;
    if (target.phase == Phase::kCompleted || target.phase == Phase::kFailed) {
      return;
    }
    if (kind == FailureKind::kTimeout) m_timeouts_.add();
    handle_kill(target, kind);
  });
}

double Platform::begin_attempt(InvocationInternal& inv, Container& c,
                               const StartSpec& spec, bool cold) {
  ++inv.attempt;
  inv.next_state = spec.from_state;
  inv.work_done = work_floor(*inv.spec, spec.from_state);
  inv.node = c.node;
  inv.container = c.id;
  c.assigned = inv.id;
  if (cold) {
    inv.phase = Phase::kLaunching;
    m_cold_starts_.add();
    obs_event(inv, obs::EventKind::kLaunch, obs::Name::kLaunch);
  } else {
    inv.phase = Phase::kStarting;
    m_warm_starts_.add();
    // Warm adoption skips launch+init (the replication win); the dispatch
    // window plus any checkpoint restore is the whole pre-exec cost.
    obs_event(inv, obs::EventKind::kRestore, obs::Name::kWarmDispatch);
  }
  const double speed = cluster_.node(c.node).speed();
  arm_kill_timer(inv, attempt_busy_estimate(inv, spec, speed, cold));
  return speed;
}

void Platform::start_cold(InvocationInternal& inv, NodeId node,
                          StartSpec spec) {
  const Bytes memory = inv.spec->effective_memory();
  const Status reserved = cluster_.node(node).reserve(memory);
  if (!reserved.ok()) {
    inv.phase = Phase::kPending;
    capacity_waiters_.emplace_back(inv.id, spec);
    return;
  }

  const ContainerId cid = create_container(node, inv.spec->runtime, memory,
                                           ContainerPurpose::kFunction);
  const double speed =
      begin_attempt(inv, container_ref(cid), spec, /*cold=*/true);

  const auto& rt = profile(inv.spec->runtime);
  const Duration launch =
      rt.cold_launch * speed * launch_contention_multiplier(node);
  const Duration init = rt.init * speed;
  const Duration setup = spec.extra_setup;
  const FunctionId id = inv.id;
  const int attempt = inv.attempt;

  inv.progress_event = sim_.schedule_after(launch, [this, id, attempt, cid,
                                                    init, setup] {
    // A container destroyed mid-launch already released its in-flight
    // launch slot in destroy_container().
    Container* c = alive_container(cid);
    if (c == nullptr) return;
    release_inflight_launch(c->node);
    auto* target = attempt_guard(id, attempt, cid);
    if (target == nullptr) return;
    c->state = ContainerState::kInitializing;
    target->phase = Phase::kInitializing;
    obs_event(*target, obs::EventKind::kInit, obs::Name::kInit);
    target->progress_event =
        sim_.schedule_after(init, [this, id, attempt, cid, setup] {
          auto* target = attempt_guard(id, attempt, cid);
          if (target == nullptr) return;
          container_ref(cid).state = ContainerState::kBusy;
          target->phase = Phase::kStarting;
          if (setup > Duration::zero()) {
            obs_event(*target, obs::EventKind::kRestore, obs::Name::kRestore);
          }
          target->progress_event =
              sim_.schedule_after(setup, [this, id, attempt, cid] {
                auto* target = attempt_guard(id, attempt, cid);
                if (target == nullptr) return;
                begin_execution(*target, attempt);
              });
        });
  });
}

void Platform::start_warm(InvocationInternal& inv, Container& c,
                          StartSpec spec) {
  warm_index_remove(c);  // leaving the Warm state (keyed by old purpose)
  c.state = ContainerState::kBusy;
  c.idle_since = TimePoint::max();
  // Cost attribution: any prior interval (replica/standby warm-up, or a
  // previous function's execution on a reused pool container) is closed;
  // from adoption on, occupancy bills as this function's execution.
  ledger_.close(c.id, sim_.now());
  c.purpose = ContainerPurpose::kFunction;
  ledger_.open_at(c, sim_.now());
  const double speed = begin_attempt(inv, c, spec, /*cold=*/false);

  const auto& rt = profile(inv.spec->runtime);
  const Duration setup = rt.warm_dispatch * speed + spec.extra_setup;
  const FunctionId id = inv.id;
  const int attempt = inv.attempt;
  const ContainerId cid = c.id;
  inv.progress_event = sim_.schedule_after(setup, [this, id, attempt, cid] {
    auto* target = attempt_guard(id, attempt, cid);
    if (target == nullptr) return;
    begin_execution(*target, attempt);
  });
}

void Platform::begin_execution(InvocationInternal& inv, int attempt) {
  CANARY_CHECK(inv.attempt == attempt, "stale execution event");
  inv.phase = Phase::kExecuting;
  obs_event(inv, obs::EventKind::kExec, obs::Name::kExec);
  if (inv.first_dispatch_time == TimePoint::max()) {
    inv.first_dispatch_time = sim_.now();
  }
  for (auto* obs : observers_) obs->on_attempt_started(inv);
  resolve_recovery_markers(inv);
  schedule_segment(inv, /*continuation=*/false);
}

Duration Platform::state_time(const InvocationInternal& inv, std::size_t idx,
                              double speed) const {
  return (inv.spec->states[idx].duration + epilogue_nominal(inv, idx)) *
         speed;
}

void Platform::schedule_segment(InvocationInternal& inv, bool continuation) {
  const double speed = cluster_.node(inv.node).speed();
  const FunctionId id = inv.id;
  const int attempt = inv.attempt;
  const std::size_t n = inv.spec->states.size();

  if (inv.next_state >= n) {
    inv.phase = Phase::kFinalizing;
    obs_event(inv, obs::EventKind::kFinalize, obs::Name::kFinalize);
    const Duration fin = inv.spec->finalize * speed;
    inv.progress_event = sim_.schedule_after(fin, [this, id, attempt] {
      auto& target = internal(id);
      if (target.attempt != attempt || target.phase != Phase::kFinalizing) {
        return;
      }
      complete_function(target);
    });
    return;
  }

  // The segment ends at the earliest of: the last state, the first commit
  // that regains a recovery marker (its window closes at that commit's
  // time), and, when hooks or the event log must see every commit, the
  // state in flight. The commits in between are virtual: catch_up applies
  // them at the segment's end, or earlier when something interrupts or
  // re-plans the attempt.
  Duration floor = Duration::max();
  for (const RecoveryMarker& marker : inv.markers) {
    floor = std::min(floor, marker.floor);
  }
  std::size_t last = inv.next_state;
  Duration work = inv.work_done + inv.spec->states[last].duration;
  inv.state_start = sim_.now();
  inv.state_planned_end = sim_.now() + state_time(inv, last, speed);
  TimePoint end = inv.state_planned_end;
  if (!per_state_consumer()) {
    while (last + 1 < n && work < floor) {
      ++last;
      work += inv.spec->states[last].duration;
      end = end + state_time(inv, last, speed);
    }
  }
  auto commit = [this, id, attempt, last] {
    auto& target = internal(id);
    if (target.attempt != attempt || target.phase != Phase::kExecuting) {
      return;
    }
    catch_up(target, last);
    resolve_recovery_markers(target);
    schedule_segment(target, /*continuation=*/!per_state_consumer());
  };
  inv.progress_event = continuation
                           ? sim_.schedule_continuation(end, std::move(commit))
                           : sim_.schedule_at(end, std::move(commit));
}

void Platform::catch_up(InvocationInternal& inv,
                        std::optional<std::size_t> segment_last) {
  const std::size_t n = inv.spec->states.size();
  if (inv.phase != Phase::kExecuting || inv.next_state >= n) return;
  const TimePoint now = sim_.now();
  const std::size_t through = std::min(segment_last.value_or(n - 1), n - 1);
  // The node's speed has not changed since the segment was planned:
  // set_node_slowdown catches up before it changes it.
  const double speed = cluster_.node(inv.node).speed();
  while (inv.next_state <= through && inv.state_planned_end <= now) {
    // A commit at exactly `now` is done if its per-state event would have
    // fired before the event being dispatched. That event would have been
    // scheduled at the state's start, so it goes first exactly when the
    // dispatching event was scheduled later. The segment's own event
    // commits everything through its last state.
    if (inv.state_planned_end == now && !segment_last &&
        sim_.scheduled_at() <= inv.state_start) {
      return;
    }
    const std::size_t idx = inv.next_state;
    inv.work_done += inv.spec->states[idx].duration;
    inv.next_state = idx + 1;
    if (events_ != nullptr) {  // once per state: no call without a log
      obs_event(inv, obs::EventKind::kStateCommit, obs::Name::state(idx));
    }
    if (hooks_ != nullptr) hooks_->on_state_committed(inv, idx);
    if (inv.next_state > through) return;
    inv.state_start = inv.state_planned_end;
    inv.state_planned_end =
        inv.state_planned_end + state_time(inv, inv.next_state, speed);
  }
}

void Platform::set_node_slowdown(NodeId node, double slowdown) {
  // Speed is read at each state's start. Every segment executing on the
  // node is cut short at its in-flight state's planned end; the segment
  // that follows reads the new speed.
  for (const Container* c : containers_on(node)) {
    if (!c->alive() || !c->assigned.valid()) continue;
    InvocationInternal& inv = internal(c->assigned);
    if (inv.container != c->id || inv.phase != Phase::kExecuting) continue;
    catch_up(inv);
    inv.progress_event.retime(inv.state_planned_end);
  }
  cluster_.node(node).set_slowdown(slowdown);
}

void Platform::complete_function(InvocationInternal& inv) {
  inv.phase = Phase::kCompleted;
  inv.completion_time = sim_.now();
  inv.kill_event.cancel();
  inv.timeout_event.cancel();
  inv.progress_event.cancel();
  m_function_latency_.record_duration(sim_.now() - inv.submit_time);
  if (inv.first_dispatch_time != TimePoint::max()) {
    m_function_queue_wait_.record_duration(inv.first_dispatch_time -
                                           inv.submit_time);
  }
  resolve_recovery_markers(inv);
  obs_event(inv, obs::EventKind::kComplete, obs::Name::kComplete);

  if (inv.container.valid()) {
    Container* c = alive_container(inv.container);
    if (c != nullptr) {
      if (config_.reuse_containers && cluster_.node(c->node).alive()) {
        // Return the container to the warm pool: billing pauses, and an
        // idle timer reclaims it if nothing adopts it.
        c->state = ContainerState::kWarm;
        c->assigned = FunctionId::invalid();
        c->idle_since = sim_.now();
        warm_index_add(*c);
        ledger_.close(c->id, sim_.now());
        m_containers_pooled_.add();
        const ContainerId cid = c->id;
        const TimePoint idle_mark = c->idle_since;
        sim_.schedule_after(config_.warm_pool_idle_timeout,
                            [this, cid, idle_mark] {
                              Container& pooled = container_ref(cid);
                              if (!pooled.warm_idle()) return;
                              if (pooled.idle_since != idle_mark) {
                                return;  // re-pooled since; newer timer owns it
                              }
                              destroy_container(cid);
                            });
      } else {
        destroy_container(inv.container);
      }
    }
  }
  if (inv.counted_running) {
    inv.counted_running = false;
    CANARY_CHECK(running_count_ > 0, "running count underflow");
    --running_count_;
  }
  m_functions_completed_.add();
  for (auto* obs : observers_) obs->on_function_completed(inv);

  auto& job = job_record(inv.job);
  CANARY_CHECK(job.remaining > 0, "job function count underflow");
  // Trigger the dependents whose last dependency just completed
  // (trigger-free jobs carry no graph at all).
  if (!job.dependents.empty()) {
    for (const std::size_t next : job.dependents[inv.index_in_job]) {
      CANARY_CHECK(job.unmet_deps[next] > 0, "dependency count underflow");
      if (--job.unmet_deps[next] == 0) {
        pending_.push_back(job.functions[next]);
      }
    }
  }
  if (--job.remaining == 0) {
    job.completed = sim_.now();
    for (auto* obs : observers_) obs->on_job_completed(inv.job);
  }
  pump_pending_queue();
  retry_capacity_waiters();
}

void Platform::handle_kill(InvocationInternal& inv, FailureKind kind) {
  if (inv.phase == Phase::kCompleted || inv.phase == Phase::kFailed ||
      inv.phase == Phase::kPending || inv.phase == Phase::kShed) {
    return;
  }
  catch_up(inv);
  inv.progress_event.cancel();
  inv.kill_event.cancel();
  inv.timeout_event.cancel();

  // The kFailure DAG node: opened before the markers so each marker can
  // carry it — kRecovered draws its cause edge back to this event. During
  // fail_node() the node-level kNodeFailure event is the failure's cause.
  const obs::EventId fail_event =
      obs_event(inv, obs::EventKind::kFailure, event_name(kind),
                node_failure_cause_);

  // In-flight partial state work is lost outright.
  if (inv.phase == Phase::kExecuting &&
      inv.next_state < inv.spec->states.size()) {
    const Duration planned = inv.state_planned_end - inv.state_start;
    if (planned > Duration::zero()) {
      const double frac =
          std::min(1.0, (sim_.now() - inv.state_start) / planned);
      const Duration partial = inv.spec->states[inv.next_state].duration * frac;
      inv.lost_work += partial;
      inv.markers.push_back({inv.work_done + partial, sim_.now(), fail_event});
    } else {
      inv.markers.push_back({inv.work_done, sim_.now(), fail_event});
    }
  } else {
    inv.markers.push_back({inv.work_done, sim_.now(), fail_event});
  }
  inv.last_failure_work = inv.work_done;

  ++inv.failures;
  inv.phase = Phase::kFailed;
  m_failures_.add();

  FailureInfo info;
  info.kind = kind;
  info.node = inv.node;
  info.container = inv.container;

  if (inv.container.valid() && alive_container(inv.container) != nullptr) {
    destroy_container(inv.container);
  }
  for (auto* obs : observers_) obs->on_function_failed(inv, info);

  const FunctionId id = inv.id;
  const int attempt = inv.attempt;
  if (config_.detection_mode == DetectionMode::kHeartbeat &&
      kind == FailureKind::kNodeFailure) {
    // Nobody watches a dead node's containers: the failure surfaces only
    // once the heartbeat detector confirms the node (confirm_node_dead).
    undetected_.push_back({id, attempt, info});
    return;
  }
  // Watchdog stalls are controller-initiated — the controller already
  // knows, so the invoker's detection delay does not apply.
  const Duration detect_delay = kind == FailureKind::kRecoveryStall
                                    ? Duration::zero()
                                    : kFailureDetectDelay;
  sim_.schedule_after(detect_delay, [this, id, attempt, info] {
    auto& target = internal(id);
    if (target.attempt != attempt || target.phase != Phase::kFailed) return;
    obs_event(target, obs::EventKind::kDetect, obs::Name::kDetect);
    if (recovery_ != nullptr) recovery_->on_failure(target, info);
  });
}

void Platform::confirm_node_dead(NodeId node) {
  if (cluster_.contains(node) && cluster_.node(node).alive()) {
    if (network_.reaches_majority(node)) {
      // Fencing: the detector may confirm a live-but-unresponsive worker.
      // Killing it outright before redeploying its functions is what makes
      // recovery exactly-once — the fenced attempts can never complete
      // concurrently with their replacements. The kills stash into
      // undetected_ and drain below.
      metrics_.count("nodes_fenced");
      fail_node(node);
    } else {
      // Split-brain case: the worker is alive on the minority side of a
      // partition, so there is no way to kill it from here. Fence it
      // logically — its replacements redeploy on the majority side while
      // the zombie's eventual commit is rejected by the KV epoch gate.
      logically_fence(node);
    }
  }
  std::vector<UndetectedFailure> drained;
  for (auto it = undetected_.begin(); it != undetected_.end();) {
    if (it->info.node == node) {
      drained.push_back(*it);
      it = undetected_.erase(it);
    } else {
      ++it;
    }
  }
  for (const UndetectedFailure& stash : drained) {
    auto& target = internal(stash.id);
    if (target.attempt != stash.attempt || target.phase != Phase::kFailed) {
      continue;
    }
    obs_event(target, obs::EventKind::kDetect, obs::Name::kDetect);
    if (recovery_ != nullptr) recovery_->on_failure(target, stash.info);
  }
}

void Platform::logically_fence(NodeId node) {
  metrics_.count("nodes_fenced_logical");
  // The fence is an ambient root event like a node failure: every victim
  // invocation's kFailure chains off it, and so does the zombie's later
  // rejected commit annotation.
  open_takedown(node, obs::EventKind::kAnnotation, obs::Name::kNodeFenced,
                obs::kNoEvent);
  const std::vector<const Container*> on_node = containers_on(node);

  // Zombie commit attempts: each executing invocation on the minority
  // side keeps running over there and tries to commit its in-flight state
  // when that state finishes. The hook routes the attempt through the
  // real KV put path, where the stale-epoch gate rejects it. Scheduled
  // before the kills below so the projected end times are still intact.
  if (zombie_commit_hook_) {
    for (const Container* c : on_node) {
      if (!c->assigned.valid()) continue;
      InvocationInternal& inv = internal(c->assigned);
      if (inv.container != c->id || inv.phase != Phase::kExecuting) continue;
      catch_up(inv);
      const TimePoint commit_at = std::max(sim_.now(), inv.state_planned_end);
      const FunctionId id = inv.id;
      // Deliberately not attempt-guarded: the replacement's progress on
      // the majority side cannot call the zombie back.
      sim_.schedule_at(commit_at, [this, node, id] {
        zombie_commit_hook_(node, id);
      });
    }
  }

  // The kills redeploy the fenced invocations; in kHeartbeat mode they
  // stash into undetected_ and our caller drains them.
  take_down(node, on_node);
}

void Platform::open_takedown(NodeId node, obs::EventKind kind, obs::Name name,
                             obs::EventId cause) {
  if (events_ == nullptr) return;
  obs::SpanLabels labels;
  labels.node = node;
  node_failure_cause_ = events_->append_raw(
      events_->new_trace(), obs::kNoEvent, kind, name, sim_.now(), labels,
      cause);
}

void Platform::take_down(NodeId node,
                         const std::vector<const Container*>& on_node) {
  // Retire the node from the scheduler's view (placement, alive_count,
  // quorum size) before its invocations fail, so recovery redeploys them
  // elsewhere.
  cluster_.fail_node(node);
  for (const Container* c : on_node) {
    if (!c->alive()) continue;  // may have died while killing its sibling
    // Any container with an assigned function — launching, initializing,
    // or executing — takes its invocation down with it; only unassigned
    // warm replicas/standbys are plain teardowns.
    if (c->assigned.valid() && internal(c->assigned).container == c->id &&
        !internal(c->assigned).completed()) {
      handle_kill(internal(c->assigned), FailureKind::kNodeFailure);
    } else {
      destroy_container(c->id);
    }
  }
  node_failure_cause_ = obs::kNoEvent;
}

void Platform::resolve_recovery_markers(InvocationInternal& inv) {
  const TimePoint now = sim_.now();
  auto it = inv.markers.begin();
  while (it != inv.markers.end()) {
    if (it->floor <= inv.work_done) {
      const Duration recovery = now - it->fail_time;
      inv.recovery_time += recovery;
      m_recovery_time_.record_duration(recovery);
      m_recoveries_.add();
      obs_event(inv, obs::EventKind::kRecovered, obs::Name::kRecovered,
                it->fail_event);
      it = inv.markers.erase(it);
    } else {
      ++it;
    }
  }
}

void Platform::kill_function(FunctionId id, FailureKind kind) {
  handle_kill(internal(id), kind);
}

void Platform::log_recovery_action(FunctionId id, obs::Name action) {
  obs_event(internal(id), obs::EventKind::kRecoveryAction, action);
}

void Platform::join_trace(FunctionId follower, FunctionId leader) {
  if (events_ == nullptr) return;
  auto& lead = internal(leader);
  auto& follow = internal(follower);
  if (!lead.trace.trace.valid()) lead.trace.trace = events_->new_trace();
  if (follow.trace.trace == lead.trace.trace) return;
  // Re-root the follower's chain onto the leader's trace: its first event
  // becomes a child of the leader's latest, so primary and shadow share
  // one DAG and the replica race is visible as a fork.
  if (follow.trace.last != obs::kNoEvent) {
    events_->rebind(follow.trace.last, lead.trace.trace, lead.trace.last);
  }
  follow.trace.trace = lead.trace.trace;
}

void Platform::discard_function(FunctionId id) {
  auto& inv = internal(id);
  if (inv.phase == Phase::kCompleted || inv.phase == Phase::kShed) return;
  catch_up(inv);
  inv.progress_event.cancel();
  inv.kill_event.cancel();
  inv.timeout_event.cancel();
  inv.markers.clear();  // a discarded loser owes no recovery
  if (inv.phase == Phase::kPending) {
    // Remove from whichever queue holds it.
    auto pending = std::find(pending_.begin(), pending_.end(), id);
    if (pending != pending_.end()) pending_.erase(pending);
    auto waiter = std::find_if(
        capacity_waiters_.begin(), capacity_waiters_.end(),
        [id](const auto& entry) { return entry.first == id; });
    if (waiter != capacity_waiters_.end()) capacity_waiters_.erase(waiter);
  }
  // A stashed node-failure notification (heartbeat mode) for a discarded
  // invocation is moot — it must not linger as a stranded failure when
  // the run ends before the detector confirms the node.
  undetected_.erase(
      std::remove_if(undetected_.begin(), undetected_.end(),
                     [id](const UndetectedFailure& u) { return u.id == id; }),
      undetected_.end());
  m_functions_discarded_.add();
  obs_event(inv, obs::EventKind::kAnnotation, obs::Name::kDiscarded);
  complete_function(inv);
}

FunctionId Platform::hedge_clone(FunctionId primary) {
  auto& inv = internal(primary);
  CANARY_CHECK(inv.phase != Phase::kCompleted && inv.phase != Phase::kShed,
               "cannot hedge a terminal invocation");
  // The clone shares the primary's spec verbatim — growing
  // JobRecord::spec.functions would invalidate every spec pointer of the
  // job, and an identical name keeps the pair in one workload family and
  // one exactly-once identity per FunctionId. The slab keeps `inv` valid
  // across growth.
  InvocationInternal& clone = new_invocation(inv.job, *inv.spec);
  const FunctionId fid = clone.id;

  // The clone is a first-class member of the job: `remaining` counts it,
  // so the job completes only once both copies reach a terminal state
  // (the loser via discard). Its dependents entry is empty — completing
  // a clone can never double-trigger the primary's dependents. A
  // trigger-free job keeps its graph vectors empty, clones included.
  JobRecord& job = job_record(inv.job);
  if (!job.dependents.empty()) {
    job.dependents.emplace_back();
    job.unmet_deps.push_back(0);
  }
  ++job.remaining;

  // kHedged on the primary marks the fork point; the clone's kSubmit then
  // joins the primary's trace so the race is one causal DAG.
  obs_event(inv, obs::EventKind::kHedged, obs::Name::kHedged);
  log_arrival(clone, obs::EventKind::kSubmit, std::nullopt);
  join_trace(fid, primary);

  // No SLO target and no account concurrency slot: the primary already
  // owns both, and a speculative copy must not double the request's
  // deadline bookkeeping or starve admission. Clones prefer a node other
  // than the primary's — a hedge against a gray host is useless if it
  // lands on the same host — and, with fault-domain spreading, a zone
  // other than the primary's, so one zone outage cannot take both down.
  StartSpec spec;
  if (inv.node.valid()) {
    spec.node_pref =
        cluster_.spread_fault_domains()
            ? cluster_.least_loaded_avoiding_zone(
                  clone.spec->effective_memory(),
                  cluster_.zone_of(inv.node), {inv.node})
            : cluster_.least_loaded_excluding(clone.spec->effective_memory(),
                                              {inv.node});
  }
  start_attempt(fid, spec);
  return fid;
}

void Platform::cancel_hedge(FunctionId loser, FunctionId winner) {
  auto& lose = internal(loser);
  // Exactly-once by construction: a loser that already completed (same
  // sim-tick race) or was shed is terminal and must stay untouched.
  if (lose.phase == Phase::kCompleted || lose.phase == Phase::kShed) return;
  auto& win = internal(winner);
  // The cause edge points at the winner's latest event, so the chrome
  // trace renders the race resolution as a flow arrow across the fork.
  obs_event(lose, obs::EventKind::kHedgeCancelled, obs::Name::kHedgeCancelled,
            win.trace.last);
  discard_function(loser);
}

void Platform::fail_node(NodeId node, obs::EventId cause) {
  m_node_failures_.add();
  // The node failure is an ambient root event on its own trace; every
  // victim invocation's kFailure event points back to it via a cause
  // edge, so one chrome flow fans out from the node to all casualties.
  open_takedown(node, obs::EventKind::kNodeFailure, obs::Name::kNodeFailure,
                cause);
  take_down(node, containers_on(node));
}

Result<ContainerId> Platform::launch_warm_container(NodeId node,
                                                    RuntimeImage image,
                                                    ContainerPurpose purpose) {
  if (!cluster_.contains(node)) return Error::invalid_argument("unknown node");
  auto& host = cluster_.node(node);
  const Bytes memory = profile(image).memory;
  const Status reserved = host.reserve(memory);
  if (!reserved.ok()) return reserved.error();

  const ContainerId cid = create_container(node, image, memory, purpose);
  const double speed = host.speed();
  const auto& rt = profile(image);
  const Duration launch =
      rt.cold_launch * speed * launch_contention_multiplier(node);
  const Duration init = rt.init * speed;

  // Warm provisioning gets its own little trace: provision → ready. The
  // adopting invocation later chains off its own trace, so these stay a
  // side branch rather than polluting an invocation's critical path.
  obs::TraceContext warm_trace;
  if (events_ != nullptr) {
    warm_trace.trace = events_->new_trace();
    obs::SpanLabels labels;
    labels.container = cid;
    labels.node = node;
    events_->extend(warm_trace, obs::EventKind::kReplica,
                    obs::Name::kReplicaProvision, sim_.now(), labels);
  }

  sim_.schedule_after(launch, [this, cid, init, node, warm_trace] {
    Container* c = alive_container(cid);
    if (c == nullptr) return;
    release_inflight_launch(node);
    c->state = ContainerState::kInitializing;
    sim_.schedule_after(init, [this, cid, warm_trace] {
      Container* inner = alive_container(cid);
      if (inner == nullptr) return;
      inner->state = ContainerState::kWarm;
      warm_index_add(*inner);
      if (events_ != nullptr && warm_trace.valid()) {
        obs::SpanLabels labels;
        labels.container = cid;
        labels.node = inner->node;
        events_->append(warm_trace, obs::EventKind::kReplica,
                        obs::Name::kReplicaReady, sim_.now(), labels);
      }
      // An observer may adopt or destroy the container; once it is gone,
      // later observers are not told it is ready.
      for (auto* obs : observers_) {
        if (!inner->alive()) break;
        obs->on_container_ready(*inner);
      }
    });
  });
  return cid;
}

std::optional<ContainerId> Platform::find_warm_container(
    RuntimeImage image, std::optional<NodeId> prefer_node,
    std::optional<ContainerPurpose> purpose) const {
  const std::size_t img = static_cast<std::size_t>(image);
  // Selection mirrors the old full scan exactly: a container on the
  // preferred node wins (lowest id among those), else the lowest id
  // overall. The index sets are ascending, so the first alive hit per set
  // is that set's lowest candidate.
  ContainerId best_preferred = ContainerId::invalid();
  ContainerId best_any = ContainerId::invalid();
  auto scan = [&](const std::set<ContainerId>& pool) {
    for (const ContainerId cid : pool) {
      const Container& c = container_ref(cid);
      // A node death destroys its containers synchronously, but observers
      // run mid-teardown, so skip (don't trust) dead-node entries.
      if (!cluster_.node(c.node).alive()) continue;
      if (!best_any.valid() || cid < best_any) best_any = cid;
      if (prefer_node && c.node == *prefer_node) {
        if (!best_preferred.valid() || cid < best_preferred) {
          best_preferred = cid;
        }
        break;  // ascending set: later entries can't beat this one
      }
      if (!prefer_node) break;  // lowest id found and no preference to chase
    }
  };
  if (purpose) {
    scan(warm_idle_[static_cast<std::size_t>(*purpose)][img]);
  } else {
    for (std::size_t p = 0; p < kPurposeCount; ++p) {
      scan(warm_idle_[p][img]);
    }
  }
  if (best_preferred.valid()) return best_preferred;
  if (best_any.valid()) return best_any;
  return std::nullopt;
}

void Platform::destroy_warm_container(ContainerId id) {
  Container& c = container_ref(id);
  CANARY_CHECK(c.warm_idle(), "container is not warm-idle");
  destroy_container(id);
}

const Container& Platform::container(ContainerId id) const {
  return container_ref(id);
}

std::vector<const Container*> Platform::containers_on(NodeId node) const {
  // Slab order is id order, so the result needs no sort.
  std::vector<const Container*> result;
  for (const auto& c : containers_) {
    if (c.node == node && c.alive()) result.push_back(&c);
  }
  return result;
}

std::size_t Platform::warm_idle_count(RuntimeImage image,
                                      ContainerPurpose purpose) const {
  const auto& index = warm_idle_[static_cast<std::size_t>(purpose)]
                               [static_cast<std::size_t>(image)];
  std::size_t count = 0;
  for (const ContainerId cid : index) {
    if (cluster_.node(container_ref(cid).node).alive()) ++count;
  }
  return count;
}

std::size_t Platform::warm_container_count(RuntimeImage image) const {
  const std::size_t img = static_cast<std::size_t>(image);
  std::size_t count = 0;
  for (std::size_t p = 0; p < kPurposeCount; ++p) {
    for (const ContainerId cid : warm_idle_[p][img]) {
      if (cluster_.node(container_ref(cid).node).alive()) ++count;
    }
  }
  return count;
}

void Platform::destroy_container(ContainerId id) {
  Container& c = container_ref(id);
  if (!c.alive()) return;
  if (c.state == ContainerState::kLaunching) {
    release_inflight_launch(c.node);
  }
  if (c.state == ContainerState::kWarm) warm_index_remove(c);
  c.state = ContainerState::kDead;
  ledger_.close(id, sim_.now());
  if (cluster_.contains(c.node) && cluster_.node(c.node).alive()) {
    cluster_.node(c.node).release(c.memory);
  }
  for (auto* obs : observers_) obs->on_container_destroyed(c);
  retry_capacity_waiters();
}

void Platform::finalize_usage() { ledger_.close_all_open(sim_.now()); }

}  // namespace canary::faas

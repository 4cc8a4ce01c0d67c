// Open-loop traffic generator: drives ArrivalProcess streams through
// admission control into the platform on the simulation clock.
//
// Each configured stream is one function class: a FunctionSpec template
// stamped per arrival with a unique name ("<stream>-<seq>", so the
// critical-path family grouping aggregates a stream under its base
// name), an ArrivalProcess, an SLA, and an admission class. Arrivals are
// scheduled as simulator events independent of completions — that is
// what "open-loop" means — and each arrival is offered to the
// AdmissionController, which either submits it (through the callback the
// harness wires at the platform or the Canary control plane), buffers
// it, or sheds it into a terminal kShed invocation via
// faas::Platform::shed_job.
//
// JobSpec::enqueued_at carries the arrival instant into the platform, so
// the causal trace gains a kQueued root at arrival time, the SLO
// deadline anchors at arrival (a request that waited is not forgiven its
// wait), and the critical-path analyzer attributes pre-admission wait to
// the `queueing` component instead of scheduling.
//
// Jobs are bound back to their arrival records by function name through
// PlatformObserver::on_job_submitted — robust to the Canary Request
// Validator deferring a submission — and released at on_job_completed
// (jobs always complete, even when request replication discards the
// losing replicas, so admission slots cannot leak). The generator records
// only into the platform's metric registry: the traffic_latency (arrival
// to completion) and traffic_queue_wait (arrival to platform submit)
// histograms and the exactly-once conservation counters, which with the
// admission backlog at any instant satisfy
//
//   traffic_offered == traffic_admitted + traffic_shed + queued
//   traffic_admitted == traffic_completed + in-flight
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "faas/events.hpp"
#include "faas/platform.hpp"
#include "obs/metric_registry.hpp"
#include "sim/simulator.hpp"
#include "traffic/admission.hpp"
#include "traffic/arrival.hpp"

namespace canary::traffic {

struct AutoscalerConfig {
  bool enabled = false;
  /// Reactive sweep cadence.
  Duration sweep_interval = Duration::msec(200);
  std::size_t max_warm = 16;
  /// Containers launched / retired per class per sweep, at most.
  std::size_t max_step = 4;
  Duration scale_in_cooldown = Duration::sec(2.0);
  /// Hard stop for the sweep task past the traffic horizon: even if a
  /// run wedges short of quiescence, the autoscaler must not keep the
  /// simulator alive forever.
  Duration drain_grace = Duration::sec(300.0);
};

struct StreamConfig {
  /// Stream label; per-arrival function names are "<name>-<seq>", so the
  /// breakdown's family grouping folds the stream under `name`.
  std::string name = "traffic";
  /// Template stamped per arrival (name and sla overwritten).
  faas::FunctionSpec fn;
  ArrivalSpec arrival;
  /// Per-invocation deadline measured from *arrival*; zero = none.
  Duration sla = Duration::zero();
  AdmissionClassConfig admission;
};

struct TrafficConfig {
  /// Off by default: a disabled traffic subsystem leaves every existing
  /// scenario byte-identical (nothing is constructed, no RNG is drawn).
  bool enabled = false;
  std::vector<StreamConfig> streams;
  /// Arrival generation stops here; admitted work drains afterwards.
  Duration horizon = Duration::sec(30.0);
  AutoscalerConfig autoscaler;
};

class TrafficGenerator final : public faas::PlatformObserver {
 public:
  /// Submission route; the harness points this at Platform::submit_job or
  /// core::CoreModule::submit_job. A JobId::invalid() success means the
  /// control plane buffered the request (it still counts as admitted and
  /// binds once the deferred submission lands).
  using SubmitFn = std::function<Result<JobId>(faas::JobSpec)>;

  TrafficGenerator(sim::Simulator& sim, faas::Platform& platform,
                   TrafficConfig config, SubmitFn submit, Rng rng);

  /// Schedule the first arrival of every stream. The caller must also
  /// platform.add_observer(this) so completions are seen.
  void start();

  /// Every stream exhausted (horizon reached or trace drained).
  bool finished() const { return active_streams_ == 0; }
  /// Finished and nothing buffered or in flight.
  bool quiescent() const { return finished() && admission_.drained(); }

  const TrafficConfig& config() const { return config_; }
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  /// Admission-level hedge policy: grant a speculative clone for `job`
  /// under its stream's per-class budget. Jobs not bound to a stream
  /// (batch work sharing the run) are not budgeted here and always pass.
  bool try_hedge(JobId job);
  /// Release the grant when the race resolves (no-op for unbound jobs).
  void hedge_resolved(JobId job);

  // PlatformObserver
  void on_job_submitted(JobId job) override;
  void on_job_completed(JobId job) override;

 private:
  struct Stream {
    StreamConfig config;
    std::unique_ptr<ArrivalProcess> process;
    std::size_t admission_class = 0;
    std::uint64_t seq = 0;
    bool active = false;
  };
  /// An admitted arrival awaiting its platform invocation (keyed by the
  /// unique per-arrival function name until on_job_submitted binds it).
  struct PendingArrival {
    std::size_t stream = 0;
    TimePoint arrived;
  };
  struct BoundArrival {
    std::size_t stream = 0;
    TimePoint arrived;
  };

  void handle_arrival(std::size_t stream_idx);
  void schedule_next(std::size_t stream_idx, TimePoint after);
  faas::JobSpec make_job(Stream& stream, TimePoint now);

  sim::Simulator& sim_;
  faas::Platform& platform_;
  TrafficConfig config_;
  SubmitFn submit_;
  Rng rng_;
  AdmissionController admission_;
  std::vector<Stream> streams_;
  std::size_t active_streams_ = 0;
  /// Stream index the admission callbacks are currently serving; offers
  /// and pumps are synchronous, so a single cell replaces plumbing the
  /// index through the type-erased callbacks.
  std::size_t current_stream_ = 0;
  std::unordered_map<std::string, PendingArrival> pending_;
  std::unordered_map<std::uint64_t, BoundArrival> bound_;  // JobId value

  obs::CounterHandle m_offered_{platform_.metrics(), "traffic_offered"};
  obs::CounterHandle m_admitted_{platform_.metrics(), "traffic_admitted"};
  obs::CounterHandle m_queued_{platform_.metrics(), "traffic_queued"};
  obs::CounterHandle m_shed_{platform_.metrics(), "traffic_shed"};
  obs::CounterHandle m_completed_{platform_.metrics(), "traffic_completed"};
  obs::HistogramHandle m_latency_{platform_.metrics(), "traffic_latency"};
  obs::HistogramHandle m_queue_wait_{platform_.metrics(),
                                     "traffic_queue_wait"};
};

}  // namespace canary::traffic

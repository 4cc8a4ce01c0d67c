#include "traffic/generator.hpp"

#include <utility>

#include "common/result.hpp"

namespace canary::traffic {

TrafficGenerator::TrafficGenerator(sim::Simulator& sim,
                                   faas::Platform& platform,
                                   TrafficConfig config, SubmitFn submit,
                                   Rng rng)
    : sim_(sim),
      platform_(platform),
      config_(std::move(config)),
      submit_(std::move(submit)),
      rng_(rng),
      admission_(
          [this](faas::JobSpec spec) {
            m_admitted_.add();
            // Keep a handle for the defensive shed path: the spec is
            // statically valid by construction, so a rejection here is a
            // misconfiguration, not load — but it must still conserve.
            faas::JobSpec fallback = spec;
            const Result<JobId> result = submit_(std::move(spec));
            if (!result.ok()) {
              const std::size_t cls = current_stream_;
              m_admitted_.add(-1.0);
              m_shed_.add();
              pending_.erase(fallback.functions.front().name);
              (void)platform_.shed_job(std::move(fallback));
              admission_.reject_admitted(cls);
            }
          },
          [this](faas::JobSpec spec) {
            m_shed_.add();
            pending_.erase(spec.functions.front().name);
            (void)platform_.shed_job(std::move(spec));
          }) {
  CANARY_CHECK(submit_ != nullptr, "traffic generator needs a submit route");
  streams_.reserve(config_.streams.size());
  for (std::size_t i = 0; i < config_.streams.size(); ++i) {
    Stream stream;
    stream.config = config_.streams[i];
    stream.process =
        make_arrival_process(stream.config.arrival,
                             rng_.child(static_cast<std::uint64_t>(i) + 1));
    stream.admission_class = admission_.add_class(stream.config.admission);
    streams_.push_back(std::move(stream));
  }
}

void TrafficGenerator::start() {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    streams_[i].active = true;
    ++active_streams_;
    schedule_next(i, sim_.now());
  }
}

void TrafficGenerator::schedule_next(std::size_t stream_idx, TimePoint after) {
  Stream& stream = streams_[stream_idx];
  const std::optional<TimePoint> at = stream.process->next(after);
  const TimePoint deadline = TimePoint::origin() + config_.horizon;
  if (!at.has_value() || *at > deadline) {
    stream.active = false;
    CANARY_CHECK(active_streams_ > 0, "traffic stream accounting underflow");
    --active_streams_;
    return;
  }
  sim_.schedule_at(*at, [this, stream_idx] { handle_arrival(stream_idx); });
}

faas::JobSpec TrafficGenerator::make_job(Stream& stream, TimePoint now) {
  const std::uint64_t seq = stream.seq++;
  faas::FunctionSpec fn = stream.config.fn;
  fn.name = stream.config.name + "-" + std::to_string(seq);
  fn.sla = stream.config.sla;
  fn.depends_on.clear();
  faas::JobSpec job;
  job.name = stream.config.name + "-job-" + std::to_string(seq);
  job.enqueued_at = now;
  job.functions.push_back(std::move(fn));
  return job;
}

void TrafficGenerator::handle_arrival(std::size_t stream_idx) {
  Stream& stream = streams_[stream_idx];
  const TimePoint now = sim_.now();
  faas::JobSpec job = make_job(stream, now);
  pending_[job.functions.front().name] = PendingArrival{stream_idx, now};
  m_offered_.add();
  current_stream_ = stream_idx;
  const AdmissionOutcome outcome =
      admission_.offer(stream.admission_class, std::move(job));
  if (outcome == AdmissionOutcome::kQueued) m_queued_.add();
  schedule_next(stream_idx, now);
}

void TrafficGenerator::on_job_submitted(JobId job) {
  const std::vector<FunctionId>& fns = platform_.job_functions(job);
  if (fns.empty()) return;
  const faas::Invocation& inv = platform_.invocation(fns.front());
  const auto it = pending_.find(inv.spec->name);
  if (it == pending_.end()) return;  // not a traffic job
  const PendingArrival arrival = it->second;
  pending_.erase(it);
  bound_[job.value()] = BoundArrival{arrival.stream, arrival.arrived};
  m_queue_wait_.record_duration(sim_.now() - arrival.arrived);
}

void TrafficGenerator::on_job_completed(JobId job) {
  const auto it = bound_.find(job.value());
  if (it == bound_.end()) return;  // not a traffic job
  const BoundArrival bound = it->second;
  bound_.erase(it);
  m_completed_.add();
  m_latency_.record_duration(sim_.now() - bound.arrived);
  current_stream_ = bound.stream;
  admission_.on_complete(streams_[bound.stream].admission_class);
}

bool TrafficGenerator::try_hedge(JobId job) {
  const auto it = bound_.find(job.value());
  if (it == bound_.end()) return true;  // not a traffic job: not budgeted
  return admission_.try_hedge(streams_[it->second.stream].admission_class);
}

void TrafficGenerator::hedge_resolved(JobId job) {
  const auto it = bound_.find(job.value());
  if (it == bound_.end()) return;
  admission_.hedge_done(streams_[it->second.stream].admission_class);
}

}  // namespace canary::traffic

#include "traffic/admission.hpp"

#include <utility>

#include "common/result.hpp"

namespace canary::traffic {

AdmissionController::AdmissionController(SubmitFn submit, ShedFn shed)
    : submit_(std::move(submit)), shed_(std::move(shed)) {
  CANARY_CHECK(submit_ != nullptr && shed_ != nullptr,
               "admission needs submit and shed callbacks");
}

std::size_t AdmissionController::add_class(AdmissionClassConfig config) {
  CANARY_CHECK(config.max_concurrent > 0,
               "admission class needs a positive concurrency limit");
  classes_.push_back(ClassState{config, {}, {}});
  return classes_.size() - 1;
}

const AdmissionController::ClassStats& AdmissionController::stats(
    std::size_t cls) const {
  CANARY_CHECK(cls < classes_.size(), "unknown admission class");
  return classes_[cls].stats;
}

void AdmissionController::admit(ClassState& c, faas::JobSpec spec) {
  ++c.stats.in_flight;
  submit_(std::move(spec));
}

AdmissionOutcome AdmissionController::offer(std::size_t cls,
                                            faas::JobSpec spec) {
  CANARY_CHECK(cls < classes_.size(), "unknown admission class");
  ClassState& c = classes_[cls];
  ++c.stats.offered;
  if (c.stats.in_flight < c.config.max_concurrent) {
    admit(c, std::move(spec));
    return AdmissionOutcome::kAdmitted;
  }
  if (c.backlog.size() < c.config.queue_capacity) {
    c.backlog.push_back(std::move(spec));
    c.stats.queued = c.backlog.size();
    if (c.backlog.size() > c.stats.queue_peak) {
      c.stats.queue_peak = c.backlog.size();
    }
    return AdmissionOutcome::kQueued;
  }
  shed_(std::move(spec));
  return AdmissionOutcome::kShed;
}

void AdmissionController::release(ClassState& c) {
  --c.stats.in_flight;
  while (c.stats.in_flight < c.config.max_concurrent && !c.backlog.empty()) {
    faas::JobSpec spec = std::move(c.backlog.front());
    c.backlog.pop_front();
    c.stats.queued = c.backlog.size();
    admit(c, std::move(spec));
  }
}

void AdmissionController::on_complete(std::size_t cls) {
  CANARY_CHECK(cls < classes_.size(), "unknown admission class");
  ClassState& c = classes_[cls];
  CANARY_CHECK(c.stats.in_flight > 0, "admission in-flight underflow");
  release(c);
}

void AdmissionController::reject_admitted(std::size_t cls) {
  CANARY_CHECK(cls < classes_.size(), "unknown admission class");
  ClassState& c = classes_[cls];
  CANARY_CHECK(c.stats.in_flight > 0,
               "admission reject without a matching admit");
  release(c);
}

bool AdmissionController::try_hedge(std::size_t cls) {
  CANARY_CHECK(cls < classes_.size(), "unknown admission class");
  ClassState& c = classes_[cls];
  // A backlogged class is saturated: every node-second a clone burns
  // would come straight out of queued requests' wait time.
  if (!c.backlog.empty() || c.stats.hedges_active >= c.config.hedge_budget) {
    return false;
  }
  ++c.stats.hedges_active;
  return true;
}

void AdmissionController::hedge_done(std::size_t cls) {
  CANARY_CHECK(cls < classes_.size(), "unknown admission class");
  ClassState& c = classes_[cls];
  CANARY_CHECK(c.stats.hedges_active > 0, "hedge release without a grant");
  --c.stats.hedges_active;
}

std::size_t AdmissionController::total_queued() const {
  std::size_t total = 0;
  for (const ClassState& c : classes_) total += c.backlog.size();
  return total;
}

std::size_t AdmissionController::total_in_flight() const {
  std::size_t total = 0;
  for (const ClassState& c : classes_) total += c.stats.in_flight;
  return total;
}

bool AdmissionController::drained() const {
  return total_queued() == 0 && total_in_flight() == 0;
}

}  // namespace canary::traffic

// Per-function-class admission control: bounded queues, concurrency
// limits, shed-on-overflow.
//
// Open-loop arrivals cannot be told to slow down, so the only three
// honest outcomes for a request are admit (submit to the platform now),
// queue (bounded buffer, FIFO, submitted when a slot frees), or shed
// (rejected immediately once the buffer is full). The controller is pure
// bookkeeping over those three outcomes; the callbacks it is constructed
// with decide what "submit" and "shed" physically mean (the traffic
// generator routes them at the platform or the Canary control plane, and
// sheds become terminal kShed invocations via Platform::shed_job so
// nothing is ever silently dropped).
//
// Accounting is exactly-once by construction: every offer ends in exactly
// one submit callback (now or when a slot frees) or one shed callback,
// and every admitted request is balanced by exactly one on_complete().
// The controller keeps only what it decides with — the live levels, the
// arrival count the autoscaler samples and the backlog peak. The outcome
// totals are counted once, by the traffic generator's callbacks, in the
// platform's metric registry (traffic_admitted, traffic_shed, ...), where
// the chaos campaign checks conservation (offered == admitted + shed +
// queued, admitted == completed + in-flight).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "faas/function.hpp"

namespace canary::traffic {

struct AdmissionClassConfig {
  /// Requests of this class running (or platform-queued) concurrently.
  unsigned max_concurrent = 8;
  /// Bounded FIFO backlog beyond the concurrency limit; arrivals past
  /// this are shed.
  std::size_t queue_capacity = 32;
  /// Speculative hedge clones racing concurrently for this class. Clones
  /// bypass the platform's account concurrency queue, so this budget is
  /// what keeps hedging from amplifying an overloaded class past
  /// saturation — and any backlog at all denies hedges outright.
  std::size_t hedge_budget = 4;
};

enum class AdmissionOutcome { kAdmitted, kQueued, kShed };

class AdmissionController {
 public:
  using SubmitFn = std::function<void(faas::JobSpec)>;
  using ShedFn = std::function<void(faas::JobSpec)>;

  AdmissionController(SubmitFn submit, ShedFn shed);

  /// Register a class (one per traffic stream); returns its index.
  std::size_t add_class(AdmissionClassConfig config);
  std::size_t class_count() const { return classes_.size(); }

  /// One arrival. Exactly one of: submit fires synchronously (admitted),
  /// the spec is buffered (queued), or shed fires synchronously.
  AdmissionOutcome offer(std::size_t cls, faas::JobSpec spec);

  /// One admitted request of `cls` reached a terminal state; frees its
  /// concurrency slot and pumps the backlog (FIFO).
  void on_complete(std::size_t cls);

  /// The submit callback could not place an admitted request (statically
  /// invalid spec — never load): free its slot and pump the backlog; the
  /// caller counts the request as shed. Callable re-entrantly from inside
  /// the submit callback.
  void reject_admitted(std::size_t cls);

  /// A speculative clone wants to launch for an admitted request of
  /// `cls`. Granted only while the class is unsaturated (no backlog) and
  /// under its hedge budget; every grant must be returned exactly-once
  /// via hedge_done when the race resolves.
  bool try_hedge(std::size_t cls);
  void hedge_done(std::size_t cls);

  struct ClassStats {
    std::uint64_t offered = 0;
    std::uint64_t queue_peak = 0;
    std::size_t queued = 0;
    std::size_t in_flight = 0;
    std::size_t hedges_active = 0;
  };
  const ClassStats& stats(std::size_t cls) const;

  std::size_t total_queued() const;
  std::size_t total_in_flight() const;
  /// Nothing buffered and nothing in flight (quiescence input for the
  /// autoscaler's final drain).
  bool drained() const;

 private:
  struct ClassState {
    AdmissionClassConfig config;
    ClassStats stats;
    std::deque<faas::JobSpec> backlog;
  };

  void admit(ClassState& c, faas::JobSpec spec);
  /// Free one in-flight slot and admit from the backlog (FIFO) while
  /// slots remain.
  void release(ClassState& c);

  SubmitFn submit_;
  ShedFn shed_;
  std::vector<ClassState> classes_;
};

}  // namespace canary::traffic

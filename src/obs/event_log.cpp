#include "obs/event_log.hpp"

#include "common/logging.hpp"

namespace canary::obs {

std::string_view to_string_view(EventKind kind) {
  switch (kind) {
    case EventKind::kSubmit: return "submit";
    case EventKind::kLaunch: return "launch";
    case EventKind::kInit: return "init";
    case EventKind::kRestore: return "restore";
    case EventKind::kExec: return "exec";
    case EventKind::kStateCommit: return "state_commit";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kFinalize: return "finalize";
    case EventKind::kComplete: return "complete";
    case EventKind::kFailure: return "failure";
    case EventKind::kNodeFailure: return "node_failure";
    case EventKind::kDetect: return "detect";
    case EventKind::kRecoveryAction: return "recovery_action";
    case EventKind::kRecovered: return "recovered";
    case EventKind::kReplica: return "replica";
    case EventKind::kSlaViolation: return "sla_violation";
    case EventKind::kAnnotation: return "annotation";
    case EventKind::kQueued: return "queued";
    case EventKind::kShed: return "shed";
    case EventKind::kHedged: return "hedged";
    case EventKind::kHedgeCancelled: return "hedge_cancelled";
  }
  return "unknown";
}

EventId EventLog::append_raw(TraceId trace, EventId parent, EventKind kind,
                             std::string name, TimePoint at, SpanLabels labels,
                             EventId cause) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    const auto slot = static_cast<std::size_t>(kind);
    ++dropped_by_kind_[slot];
    if (!drop_warned_[slot]) {
      drop_warned_[slot] = true;
      CANARY_LOG_WARN("event log at capacity (" << capacity_ << "): dropping '"
                                                << to_string_view(kind)
                                                << "' events");
    }
    return kNoEvent;
  }
  const EventId id = events_.size();
  Event event;
  event.id = id;
  event.trace = trace;
  event.parent = parent;
  event.cause = cause;
  event.kind = kind;
  event.name = std::move(name);
  event.at = at;
  event.labels = labels;
  events_.push_back(std::move(event));
  return id;
}

EventId EventLog::extend(TraceContext& ctx, EventKind kind, std::string name,
                         TimePoint at, SpanLabels labels, EventId cause) {
  const EventId id =
      append_raw(ctx.trace, ctx.last, kind, std::move(name), at, labels, cause);
  if (id != kNoEvent) ctx.last = id;
  return id;
}

EventId EventLog::append(const TraceContext& ctx, EventKind kind,
                         std::string name, TimePoint at, SpanLabels labels,
                         EventId cause, Duration window) {
  const EventId id = append_raw(ctx.trace, ctx.last, kind, std::move(name),
                                at, labels, cause);
  if (id != kNoEvent) events_[id].window = window;
  return id;
}

void EventLog::rebind(EventId event, TraceId trace, EventId parent) {
  if (event >= events_.size()) return;
  events_[event].trace = trace;
  events_[event].parent = parent;
}

std::size_t EventLog::count_of(EventKind kind) const {
  std::size_t count = 0;
  for (const Event& event : events_) {
    if (event.kind == kind) ++count;
  }
  return count;
}

}  // namespace canary::obs

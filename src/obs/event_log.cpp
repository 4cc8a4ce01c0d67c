#include "obs/event_log.hpp"

#include <new>
#include <optional>

#include "common/logging.hpp"
#include "common/result.hpp"

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

Event::Event(EventId id, TraceId trace, EventId parent, EventId cause,
             EventKind kind, Name name, TimePoint at, const SpanLabels& labels)
    : at_usec_(at.count_usec()),
      id_(id),
      trace_(static_cast<std::uint32_t>(trace.value())),
      parent_(parent),
      cause_or_window_(cause),
      job_(labels.job),
      function_(labels.function),
      container_(labels.container),
      node_(labels.node),
      name_(name),
      attempt_(static_cast<std::uint16_t>(labels.attempt)),
      kind_(kind) {
  CANARY_CHECK(trace.value() <= UINT32_MAX, "trace id exceeds 32 bits");
  CANARY_CHECK(labels.attempt >= 0 && labels.attempt <= UINT16_MAX,
               "attempt exceeds 16 bits");
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity) {
  CANARY_CHECK(capacity < kNoEvent, "event log capacity exceeds 32-bit ids");
  chunks_.reserve((capacity + kChunkEvents - 1) / kChunkEvents);
}

EventId EventLog::append_raw(TraceId trace, EventId parent, EventKind kind,
                             Name name, TimePoint at, const SpanLabels& labels,
                             EventId cause) {
  if (size_ >= capacity_) {
    ++dropped_;
    const auto k = static_cast<std::size_t>(kind);
    ++dropped_by_kind_[k];
    if (!drop_warned_[k]) {
      drop_warned_[k] = true;
      CANARY_LOG_WARN("event log at capacity (" << capacity_ << "): dropping '"
                                                << to_string_view(kind)
                                                << "' events");
    }
    return kNoEvent;
  }
  const std::size_t offset = size_ & (kChunkEvents - 1);
  if (offset == 0) {
    chunks_.emplace_back(std::allocator<Event>().allocate(kChunkEvents));
  }
  const auto id = static_cast<EventId>(size_++);
  ::new (chunks_.back().get() + offset)
      Event(id, trace, parent, cause, kind, name, at, labels);
  return id;
}

EventId EventLog::extend(TraceContext& ctx, EventKind kind, Name name,
                         TimePoint at, const SpanLabels& labels,
                         EventId cause) {
  const EventId id =
      append_raw(ctx.trace, ctx.last, kind, name, at, labels, cause);
  if (id != kNoEvent) ctx.last = id;
  return id;
}

EventId EventLog::append(const TraceContext& ctx, EventKind kind, Name name,
                         TimePoint at, const SpanLabels& labels,
                         EventId cause) {
  return append_raw(ctx.trace, ctx.last, kind, name, at, labels, cause);
}

EventId EventLog::append_checkpoint(const TraceContext& ctx, std::size_t state,
                                    TimePoint at, const SpanLabels& labels,
                                    Duration window) {
  CANARY_CHECK(window >= Duration::zero() &&
                   window.count_usec() <= std::int64_t{UINT32_MAX},
               "checkpoint window exceeds 32-bit microseconds");
  const EventId id = append_raw(ctx.trace, ctx.last, EventKind::kCheckpoint,
                                Name::checkpoint(state), at, labels);
  if (id != kNoEvent) {
    slot(id).cause_or_window_ = static_cast<std::uint32_t>(window.count_usec());
  }
  return id;
}

void EventLog::rebind(EventId event, TraceId trace, EventId parent) {
  if (event >= size_) return;
  CANARY_CHECK(trace.value() <= UINT32_MAX, "trace id exceeds 32 bits");
  Event& record = slot(event);
  record.trace_ = static_cast<std::uint32_t>(trace.value());
  record.parent_ = parent;
}

Name EventLog::intern(std::string_view text) {
  if (size_ >= capacity_) return Name{};
  if (const std::optional<Name> literal = Name::literal(text)) return *literal;
  return names_.add(text);
}

std::size_t EventLog::count_of(EventKind kind) const {
  std::size_t count = 0;
  for (const Event& event : *this) {
    if (event.kind() == kind) ++count;
  }
  return count;
}

}  // namespace canary::obs

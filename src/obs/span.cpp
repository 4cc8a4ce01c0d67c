#include "obs/span.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "obs/event_log.hpp"

namespace canary::obs {

std::string_view to_string_view(SpanKind kind) {
  switch (kind) {
    case SpanKind::kLaunch: return "launch";
    case SpanKind::kInit: return "init";
    case SpanKind::kRestore: return "restore";
    case SpanKind::kExec: return "exec";
    case SpanKind::kFinalize: return "finalize";
    case SpanKind::kCheckpoint: return "checkpoint";
    case SpanKind::kReplication: return "replication";
    case SpanKind::kRecovery: return "recovery";
    case SpanKind::kFailure: return "failure";
    case SpanKind::kNodeFailure: return "node_failure";
    case SpanKind::kOther: return "other";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// True when `event` adds a span to the timeline. The counting pass and
/// the building pass share it, so the output is sized exactly.
bool adds_span(const EventLog& log, const Event& event) {
  switch (event.kind()) {
    case EventKind::kLaunch:
    case EventKind::kInit:
    case EventKind::kRestore:
    case EventKind::kExec:
    case EventKind::kFinalize:
    case EventKind::kFailure:
    case EventKind::kNodeFailure:
    case EventKind::kRecoveryAction:
    case EventKind::kCheckpoint:
      return true;
    case EventKind::kRecovered:
      // The window starts at the failure; a truncated log may lack it.
      return log.find(event.cause()) != nullptr;
    case EventKind::kReplica:
      return event.name() == Name::kReplicaProvision;
    default:
      return false;
  }
}

SpanKind phase_kind(EventKind kind) {
  switch (kind) {
    case EventKind::kLaunch: return SpanKind::kLaunch;
    case EventKind::kInit: return SpanKind::kInit;
    case EventKind::kRestore: return SpanKind::kRestore;
    case EventKind::kExec: return SpanKind::kExec;
    case EventKind::kFinalize: return SpanKind::kFinalize;
    default: return SpanKind::kOther;
  }
}

}  // namespace

std::vector<Span> derive_spans(const EventLog& log, TimePoint end) {
  std::size_t count = 0;
  std::uint64_t max_function = 0;
  std::uint64_t max_container = 0;
  for (const Event& event : log) {
    if (adds_span(log, event)) ++count;
    const SpanLabels labels = event.labels();
    max_function = std::max(max_function, labels.function.value());
    max_container = std::max(max_container, labels.container.value());
  }

  std::vector<Span> spans;
  spans.reserve(count);
  // Index of each function's open phase span and each container's open
  // provisioning span, or kNone.
  std::vector<std::size_t> open_phase(max_function + 1, kNone);
  std::vector<std::size_t> open_provision(max_container + 1, kNone);
  auto close = [&spans](std::size_t& open, TimePoint at) {
    if (open == kNone) return;
    spans[open].end = at;
    open = kNone;
  };
  auto add = [&spans](SpanKind kind, Name name, TimePoint start,
                      TimePoint stop, const SpanLabels& labels,
                      bool instant = false) {
    spans.push_back(Span{kind, name, start, stop, instant, labels});
    return spans.size() - 1;
  };

  for (const Event& event : log) {
    const SpanLabels labels = event.labels();
    const TimePoint at = event.at();
    std::size_t& phase = open_phase[labels.function.value()];
    switch (event.kind()) {
      case EventKind::kLaunch:
      case EventKind::kInit:
      case EventKind::kRestore:
      case EventKind::kExec:
      case EventKind::kFinalize:
        close(phase, at);
        phase = add(phase_kind(event.kind()), event.name(), at, at, labels);
        break;
      case EventKind::kComplete:
        close(phase, at);
        break;
      case EventKind::kFailure:
        close(phase, at);
        add(SpanKind::kFailure, event.name(), at, at, labels,
            /*instant=*/true);
        break;
      case EventKind::kNodeFailure:
        add(SpanKind::kNodeFailure, event.name(), at, at, labels,
            /*instant=*/true);
        break;
      case EventKind::kRecoveryAction:
        add(SpanKind::kRecovery, event.name(), at, at, labels,
            /*instant=*/true);
        break;
      case EventKind::kRecovered:
        if (const Event* failure = log.find(event.cause())) {
          add(SpanKind::kRecovery, Name::kRecovery, failure->at(), at, labels);
        }
        break;
      case EventKind::kCheckpoint:
        add(SpanKind::kCheckpoint, Name::kCheckpoint, at - event.window(), at,
            labels);
        break;
      case EventKind::kReplica: {
        std::size_t& provision = open_provision[labels.container.value()];
        if (event.name() == Name::kReplicaProvision) {
          provision =
              add(SpanKind::kReplication, Name::kReplicaProvision, at, at,
                  labels);
        } else if (event.name() == Name::kReplicaReady) {
          close(provision, at);
        }
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t& open : open_phase) close(open, end);
  for (std::size_t& open : open_provision) close(open, end);
  return spans;
}

}  // namespace canary::obs

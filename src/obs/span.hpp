// Span timeline: structured timing of lifecycle phases on the sim clock.
//
// Every function attempt decomposes into the four phases of the paper's
// Eq. (1) — launch, init, exec, finalize — plus the Canary-specific
// windows layered on top: checkpoint writes, replica provisioning,
// checkpoint restore, and failure-to-recovery intervals. Each is a Span
// keyed by simulated time, exportable to chrome://tracing.
//
// Spans are not recorded separately: derive_spans() builds the timeline
// from the causal event log in one pass, since the log already holds both
// endpoints of every span (a phase ends where the invocation's next step
// begins). The timeline therefore cannot disagree with the log the
// critical-path and tail analyses read, and a truncated log yields an
// equally truncated timeline.
//
// A Span is a 48-byte trivially copyable record: its name is a Name of
// the log it was derived from (name.hpp) and its labels are 32-bit ids,
// so a run's timeline costs 48 bytes per span in one exactly sized
// vector.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/time.hpp"
#include "obs/name.hpp"

namespace canary::obs {

class EventLog;

enum class SpanKind : std::uint8_t {
  kLaunch,       // cold container creation until the runtime is up
  kInit,         // runtime/library initialisation
  kRestore,      // checkpoint restore / warm dispatch / migration setup
  kExec,         // state-machine execution
  kFinalize,     // result persistence (Eq. (1) "fin")
  kCheckpoint,   // checkpoint write epilogue
  kReplication,  // replica provisioning (launch -> warm)
  kRecovery,     // failure detection until the lost work is regained
  kFailure,      // instant: a container/function kill
  kNodeFailure,  // instant: a node-level failure
  kOther,
};

std::string_view to_string_view(SpanKind kind);

/// A strong id held in 32 bits, the width records store their labels in.
/// It converts to and from the 64-bit Id; a value past 32 bits
/// CHECK-fails on the way in.
template <typename Tag>
class Id32 {
 public:
  constexpr Id32() = default;  // invalid
  Id32(Id<Tag> id) : value_(static_cast<std::uint32_t>(id.value())) {
    CANARY_CHECK(id.value() <= UINT32_MAX, "id exceeds 32 bits");
  }
  constexpr operator Id<Tag>() const { return Id<Tag>{value_}; }

  constexpr bool valid() const { return value_ != 0; }
  constexpr std::uint64_t value() const { return value_; }

  constexpr bool operator==(const Id32&) const = default;
  friend constexpr bool operator==(Id32 a, Id<Tag> b) {
    return a.value() == b.value();
  }

 private:
  std::uint32_t value_ = 0;
};

struct SpanLabels {
  Id32<JobTag> job;
  Id32<FunctionTag> function;
  Id32<ContainerTag> container;
  Id32<NodeTag> node;
  int attempt = 0;
};

struct Span {
  SpanKind kind = SpanKind::kOther;
  Name name;
  TimePoint start;
  TimePoint end;
  bool instant = false;  // zero-duration marker event
  SpanLabels labels;

  Duration duration() const { return end - start; }
};
static_assert(sizeof(Span) <= 48 && std::is_trivially_copyable_v<Span>);

/// The span timeline of `log`, in the order of the events that open each
/// span. Rules, applied in log order (F = the event's function):
///   * kLaunch / kInit / kRestore / kExec / kFinalize close F's open phase
///     and open a phase span of the same kind, named after the event;
///   * kComplete closes F's open phase;
///   * kFailure closes F's open phase and adds a kFailure instant;
///   * kNodeFailure adds a kNodeFailure instant;
///   * kRecoveryAction adds a kRecovery instant named after the event;
///   * kRecovered adds a "recovery" span from its cause event's time;
///   * kCheckpoint adds a "checkpoint" span over its write window;
///   * kReplica "replica_provision" / "replica_ready" open / close a
///     kReplication span on the event's container.
/// Spans still open at the end of the log close at `end`.
std::vector<Span> derive_spans(const EventLog& log, TimePoint end);

}  // namespace canary::obs

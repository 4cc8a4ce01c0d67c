// Causal event log: the per-invocation trace DAG behind the span timeline.
//
// The log answers "why did it happen"; the span timeline derived from it
// (derive_spans in span.hpp) answers "how long did this phase take".
// Every invocation carries a TraceContext — a trace id plus the id of its
// most recent event — and each lifecycle step (submit, launch, init,
// restore, exec, state commit, finalize, complete), every failure, every
// detection, and every recovery action appends an Event whose `parent`
// points at the previous event of the same causal chain. Cross-chain
// causality (a node failure killing many containers, a failure whose lost
// work is later regained) is expressed through the secondary `cause` edge,
// which the chrome-trace exporter renders as flow arrows.
//
// An Event is a 48-byte trivially copyable record: ids and labels are
// 32-bit values (CHECKed on the way in) and the name is a Name (name.hpp)
// whose text, when it has any of its own, lives in the log's NameArena.
// Records live in fixed-size chunks allocated as events arrive; a chunk
// never moves, so find() is O(1) and a pointer to an event stays valid.
// The log has a capacity cap: overflow is counted per kind (dropped_of)
// and warned about once per kind, never stored. Each run owns a private
// log, so the record path takes no locks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/name.hpp"
#include "obs/span.hpp"

namespace canary::obs {

struct TraceTag {};
/// One causal chain: an invocation and everything done on its behalf.
/// TraceId::invalid() marks ambient events (platform/injector scope).
using TraceId = Id<TraceTag>;

/// Index of an event within its EventLog. kNoEvent marks "no parent" /
/// "no cause" / "dropped by the capacity cap".
using EventId = std::uint32_t;
inline constexpr EventId kNoEvent = ~EventId{0};

/// Propagated alongside an invocation: which trace it belongs to and the
/// last event appended on its behalf (the parent of the next one).
struct TraceContext {
  TraceId trace;
  EventId last = kNoEvent;

  bool valid() const { return trace.valid(); }
};

enum class EventKind : std::uint8_t {
  kSubmit,          // invocation created at job submission
  kLaunch,          // cold container launch begins
  kInit,            // runtime initialisation begins
  kRestore,         // checkpoint restore / warm dispatch begins
  kExec,            // state-machine execution begins
  kStateCommit,     // one state finished (work_done advanced)
  kCheckpoint,      // checkpoint persisted for the committed state
  kFinalize,        // fin_f begins
  kComplete,        // invocation done
  kFailure,         // container/function kill
  kNodeFailure,     // node-level failure (ambient root of its victims)
  kDetect,          // the platform noticed the failure
  kRecoveryAction,  // a recovery strategy chose its path
  kRecovered,       // lost work regained (cause = the kFailure event)
  kReplica,         // replica/standby provisioning milestones
  kSlaViolation,    // deadline passed without completion
  kAnnotation,      // freeform marker (log mirror, injector notes)
  kQueued,          // open-loop arrival entered admission control
  kShed,            // admission control rejected the request (terminal)
  kHedged,          // a speculative clone was dispatched for this chain
  kHedgeCancelled,  // this copy lost the hedge race (cause = winner)
};

/// Number of EventKind values; sized per-kind arrays (drop counters).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kHedgeCancelled) + 1;

std::string_view to_string_view(EventKind kind);

class Event {
 public:
  EventId id() const { return id_; }
  TraceId trace() const { return TraceId{trace_}; }
  /// The previous event of the same chain.
  EventId parent() const { return parent_; }
  /// The cross-chain causal edge (flow arrow). A kCheckpoint has none:
  /// its slot holds the write window.
  EventId cause() const {
    return kind_ == EventKind::kCheckpoint ? kNoEvent : cause_or_window_;
  }
  /// kCheckpoint only: the write window ending at at(), which starts the
  /// derived checkpoint span. Zero on every other kind; never serialized.
  Duration window() const {
    return kind_ == EventKind::kCheckpoint ? Duration::usec(cause_or_window_)
                                           : Duration::zero();
  }
  EventKind kind() const { return kind_; }
  Name name() const { return name_; }
  TimePoint at() const { return TimePoint::from_usec(at_usec_); }
  SpanLabels labels() const {
    return SpanLabels{job_, function_, container_, node_, attempt_};
  }
  FunctionId function() const { return function_; }

 private:
  friend class EventLog;

  Event(EventId id, TraceId trace, EventId parent, EventId cause,
        EventKind kind, Name name, TimePoint at, const SpanLabels& labels);

  std::int64_t at_usec_;
  EventId id_;
  std::uint32_t trace_;
  EventId parent_;
  std::uint32_t cause_or_window_;
  Id32<JobTag> job_;
  Id32<FunctionTag> function_;
  Id32<ContainerTag> container_;
  Id32<NodeTag> node_;
  Name name_;
  std::uint16_t attempt_;
  EventKind kind_;
};
static_assert(sizeof(Event) <= 48 && std::is_trivially_copyable_v<Event>);

class EventLog {
 public:
  /// Events kept per chunk: 4096 x 48 B = 192 KiB.
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::size_t kChunkEvents = std::size_t{1} << kChunkBits;

  explicit EventLog(std::size_t capacity = 1u << 20);

  TraceId new_trace() { return TraceId{next_trace_++}; }

  /// Append an event chained onto `ctx` (parent = ctx.last) and advance
  /// the context. Returns kNoEvent once the capacity cap is reached (the
  /// drop is counted and the context is left unchanged).
  EventId extend(TraceContext& ctx, EventKind kind, Name name, TimePoint at,
                 const SpanLabels& labels = {}, EventId cause = kNoEvent);

  /// Append a leaf event hanging off `ctx` without advancing it — a side
  /// branch such as a replica becoming ready.
  EventId append(const TraceContext& ctx, EventKind kind, Name name,
                 TimePoint at, const SpanLabels& labels = {},
                 EventId cause = kNoEvent);

  /// Append the leaf kCheckpoint event of `state`'s commit, named
  /// "checkpoint_<state>", with its write `window` (whole microseconds
  /// below 2^32, CHECKed).
  EventId append_checkpoint(const TraceContext& ctx, std::size_t state,
                            TimePoint at, const SpanLabels& labels,
                            Duration window);

  /// Append an event with explicit edges (ambient events pass
  /// TraceId::invalid() and kNoEvent).
  EventId append_raw(TraceId trace, EventId parent, EventKind kind, Name name,
                     TimePoint at, const SpanLabels& labels = {},
                     EventId cause = kNoEvent);

  /// Re-home an existing event onto another trace under a new parent.
  /// Request replication merges each shadow's submit event into the
  /// primary's trace so the whole race shares one DAG.
  void rebind(EventId event, TraceId trace, EventId parent);

  /// Name `text`: its literal when it has one, else a copy in this log's
  /// arena. Once the log is full nothing more is recorded, so this copies
  /// nothing and returns Name{}.
  Name intern(std::string_view text);
  /// The text of a name recorded in this log.
  NameText text(Name name) const { return render(name, &names_); }
  const NameArena& names() const { return names_; }

  const Event* find(EventId id) const {
    return id < size_ ? &slot(id) : nullptr;
  }

  /// Forward iteration in id order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = const Event*;
    using reference = const Event&;

    const_iterator() = default;
    reference operator*() const { return log_->slot(id_); }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++id_;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return id_ == other.id_;
    }

   private:
    friend class EventLog;
    const_iterator(const EventLog* log, std::size_t id) : log_(log), id_(id) {}

    const EventLog* log_ = nullptr;
    std::size_t id_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  std::size_t size() const { return size_; }
  std::size_t dropped() const { return dropped_; }
  /// Drops attributed to one EventKind: which part of the causal record
  /// is incomplete, not just that something is. A chain missing kDetect
  /// drops reads very differently from one missing kAnnotation drops.
  std::size_t dropped_of(EventKind kind) const {
    return dropped_by_kind_[static_cast<std::size_t>(kind)];
  }
  /// True when the capacity cap discarded at least one event — consumers
  /// must treat counts derived from the log as lower bounds.
  bool truncated() const { return dropped_ > 0; }

  std::size_t count_of(EventKind kind) const;

 private:
  /// Chunks are raw storage; appends construct records in place, and
  /// records need no destructor.
  struct ChunkFree {
    void operator()(Event* chunk) const {
      std::allocator<Event>().deallocate(chunk, kChunkEvents);
    }
  };
  using Chunk = std::unique_ptr<Event, ChunkFree>;

  const Event& slot(std::size_t id) const {
    return chunks_[id >> kChunkBits].get()[id & (kChunkEvents - 1)];
  }
  Event& slot(std::size_t id) {
    return chunks_[id >> kChunkBits].get()[id & (kChunkEvents - 1)];
  }

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
  std::array<std::size_t, kEventKindCount> dropped_by_kind_{};
  std::array<bool, kEventKindCount> drop_warned_{};
  std::uint64_t next_trace_ = 1;
  std::vector<Chunk> chunks_;
  NameArena names_;
};

}  // namespace canary::obs

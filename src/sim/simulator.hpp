// Discrete-event simulation engine.
//
// The Simulator owns a time-ordered event queue and a virtual clock. All
// platform activity (container launches, state completions, failures,
// checkpoint flushes) is expressed as scheduled callbacks. Events at equal
// timestamps fire in scheduling order (FIFO tiebreak on a sequence
// number), which keeps runs deterministic. Events can be cancelled through
// the handle returned at scheduling time — used e.g. to retract a pending
// kill when a function completes first.
//
// A chain of events can hold one place in that order. An event may
// schedule one continuation, which takes over its sequence number, and a
// pending event can be retimed without losing its number. The platform
// uses both to dispatch a run of execution states as one event: the chain
// ties with other events exactly as its first event did.
//
// Hot-path design (million-invocation runs):
//   * Event records live in a slab with an intrusive free list and are
//     addressed by {slot, generation} handles. Cancellation flips one
//     enum and bumps nothing into the queue; firing or reclaiming a slot
//     bumps its generation, which retires every outstanding handle to it
//     (no shared_ptr control blocks, no ABA across slot reuse).
//   * The ready queue is a d-ary heap (4-ary by default — shallower than
//     a binary heap, and its sift-down touches one cache line per level)
//     of 24-byte plain entries. Cancelled events are deleted lazily: they
//     are skipped when popped, and when they pile up past half the queue
//     the heap compacts in one O(n) rebuild instead of churning tombstones
//     through every subsequent pop.
//   * Callbacks are UniqueFunction (small-buffer optimized): the common
//     platform lambdas are stored inline in the slab record and never
//     touch the allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "sim/unique_function.hpp"

namespace canary::sim {

class Simulator;

/// Cancellation handle for a scheduled event: a {slot, generation}
/// reference into the simulator's event slab. Copyable; cancelling twice,
/// cancelling after the event fired, or cancelling a default-constructed
/// or moved-from handle are all no-ops. Handles may outlive run() — the
/// generation check keeps them inert once the slot is reused — but must
/// not outlive the Simulator itself.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle&) = default;
  EventHandle& operator=(const EventHandle&) = default;
  EventHandle(EventHandle&& other) noexcept
      : sim_(other.sim_), slot_(other.slot_), generation_(other.generation_) {
    other.sim_ = nullptr;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    sim_ = other.sim_;
    slot_ = other.slot_;
    generation_ = other.generation_;
    if (this != &other) other.sim_ = nullptr;
    return *this;
  }

  void cancel();
  /// Move the pending event to `when` (not in the past). It keeps its
  /// sequence number, so it ties with other events as before. A no-op on
  /// an event that has fired or been cancelled.
  void retime(TimePoint when);
  /// True if this handle refers to an event that has neither fired nor
  /// been cancelled.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

struct SimulatorOptions {
  /// Ready-queue heap arity. 4 (the default) is measurably faster than 2
  /// on deep queues; both orders are total on (time, seq), so the
  /// executed event sequence is identical whichever is picked.
  unsigned heap_arity = 4;
  /// Lazy-deletion compaction: rebuild the heap once at least
  /// `compact_min` cancelled entries make up more than half of it.
  std::size_t compact_min = 64;
};

class Simulator {
 public:
  using Callback = UniqueFunction;

  explicit Simulator(SimulatorOptions options = {});
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when`. `when` must not be in
  /// the past.
  EventHandle schedule_at(TimePoint when, Callback fn);

  /// Schedule `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(Duration delay, Callback fn);

  /// Schedule `fn` at `when` as the continuation of the event being
  /// dispatched: it inherits that event's sequence number and scheduling
  /// time, so it ties with other events as if the chain's first event had
  /// been scheduled for `when`. Callable once per dispatch.
  EventHandle schedule_continuation(TimePoint when, Callback fn);

  /// When the event being dispatched was scheduled (for a continuation,
  /// its chain's first event); TimePoint::max() outside a dispatch. An
  /// event scheduled earlier than another event holds a smaller sequence
  /// number, so this orders the dispatching event against events that
  /// were never scheduled.
  TimePoint scheduled_at() const { return dispatch_scheduled_at_; }

  /// Run events until the queue is exhausted or `stop()` is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Run events with timestamp <= `until`, leaving later events queued.
  std::uint64_t run_until(TimePoint until);

  /// Execute a single event if one is queued. Returns false if empty.
  bool step();

  /// Stop the current run() after the in-flight event returns.
  void stop() { stopped_ = true; }

  bool empty() const { return live_count_ == 0; }
  /// Number of scheduled, not-yet-fired, not-cancelled events.
  std::size_t pending_events() const { return live_count_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  friend class EventHandle;

  /// Lifecycle of one slab slot. "Fired" needs no state of its own: the
  /// slot's generation is bumped when the event fires (or is reclaimed),
  /// which retires every handle that pointed at it.
  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  struct EventRecord {
    UniqueFunction fn;
    /// The live heap entry's key. A retime pushes a new entry; the old one
    /// stays behind as a dead entry whose time no longer matches.
    std::int64_t when_usec = 0;
    std::uint64_t seq = 0;
    std::int64_t scheduled_usec = 0;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
    SlotState state = SlotState::kFree;
  };

  /// Heap entry: 24 bytes, ordered by (when, seq). The slot's generation
  /// at scheduling time distinguishes a live entry from a stale one whose
  /// slot was reused; its time, one a retime left behind.
  struct HeapEntry {
    std::int64_t when_usec;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;

    bool before(const HeapEntry& o) const {
      if (when_usec != o.when_usec) return when_usec < o.when_usec;
      return seq < o.seq;
    }
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  void retime_slot(std::uint32_t slot, std::uint32_t generation,
                   TimePoint when);
  bool slot_pending(std::uint32_t slot, std::uint32_t generation) const;
  EventHandle push_event(TimePoint when, std::uint64_t seq,
                         std::int64_t scheduled_usec, Callback fn);

  void heap_push(HeapEntry entry);
  void heap_pop_root();
  /// Drop stale/cancelled heads; returns the live head or nullptr.
  const HeapEntry* peek_live();
  /// True when the popped entry still references a live pending event.
  bool entry_live(const HeapEntry& entry) const;
  /// Drop a dead entry, reclaiming its slot if it held a cancelled event.
  void discard_dead(const HeapEntry& entry);
  void maybe_compact();

  bool dispatch_one();

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  /// The dispatching event's sequence number and scheduling time, and
  /// whether it may still schedule its continuation.
  std::uint64_t dispatch_seq_ = 0;
  TimePoint dispatch_scheduled_at_ = TimePoint::max();
  bool continuation_open_ = false;

  std::vector<EventRecord> records_;
  std::uint32_t free_head_ = kNilSlot;
  /// Every pending event has exactly one live entry; the rest are dead
  /// (cancelled events, and entries a retime left behind), so
  /// heap_.size() - live_count_ counts the lazy-deletion tombstones.
  std::vector<HeapEntry> heap_;
  std::size_t live_count_ = 0;          // pending and not cancelled
  unsigned arity_ = 4;
  std::size_t compact_min_ = 64;
};

}  // namespace canary::sim

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
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
    SlotState state = SlotState::kFree;
  };

  /// Heap entry: 24 bytes, ordered by (when, seq). The slot's generation
  /// at scheduling time distinguishes a live entry from a stale one whose
  /// slot was compacted away and reused.
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
  bool slot_pending(std::uint32_t slot, std::uint32_t generation) const;

  void heap_push(HeapEntry entry);
  void heap_pop_root();
  /// Drop stale/cancelled heads; returns the live head or nullptr.
  const HeapEntry* peek_live();
  /// True when the popped entry still references a live pending event.
  bool entry_live(const HeapEntry& entry) const;
  void maybe_compact();

  bool dispatch_one();

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;

  std::vector<EventRecord> records_;
  std::uint32_t free_head_ = kNilSlot;
  std::vector<HeapEntry> heap_;
  std::size_t live_count_ = 0;          // pending and not cancelled
  std::size_t cancelled_in_heap_ = 0;   // lazy-deletion tombstones
  unsigned arity_ = 4;
  std::size_t compact_min_ = 64;
};

}  // namespace canary::sim

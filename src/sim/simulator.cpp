#include "sim/simulator.hpp"

#include <algorithm>

#include "common/result.hpp"

namespace canary::sim {

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(slot_, generation_);
}

void EventHandle::retime(TimePoint when) {
  if (sim_ != nullptr) sim_->retime_slot(slot_, generation_, when);
}

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slot_pending(slot_, generation_);
}

Simulator::Simulator(SimulatorOptions options)
    : arity_(options.heap_arity < 2 ? 2 : options.heap_arity),
      compact_min_(options.compact_min < 1 ? 1 : options.compact_min) {}

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = records_[slot].next_free;
    return slot;
  }
  CANARY_CHECK(records_.size() < kNilSlot, "event slab exhausted");
  records_.emplace_back();
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void Simulator::free_slot(std::uint32_t slot) {
  EventRecord& rec = records_[slot];
  rec.fn.reset();
  rec.state = SlotState::kFree;
  ++rec.generation;  // retires every outstanding handle to this slot
  rec.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= records_.size()) return;
  EventRecord& rec = records_[slot];
  if (rec.generation != generation || rec.state != SlotState::kPending) {
    return;  // already fired, cancelled, or the slot was reused
  }
  rec.state = SlotState::kCancelled;
  rec.fn.reset();  // release captures now, not when the slot is reused
  --live_count_;
  maybe_compact();
}

void Simulator::retime_slot(std::uint32_t slot, std::uint32_t generation,
                            TimePoint when) {
  if (slot >= records_.size()) return;
  EventRecord& rec = records_[slot];
  if (rec.generation != generation || rec.state != SlotState::kPending) {
    return;  // already fired, cancelled, or the slot was reused
  }
  CANARY_CHECK(when >= now_, "cannot retime an event into the past");
  if (rec.when_usec == when.count_usec()) return;
  // The old entry goes dead: its time no longer matches the record's.
  rec.when_usec = when.count_usec();
  heap_push({rec.when_usec, rec.seq, slot, generation});
  maybe_compact();
}

bool Simulator::slot_pending(std::uint32_t slot,
                             std::uint32_t generation) const {
  if (slot >= records_.size()) return false;
  const EventRecord& rec = records_[slot];
  return rec.generation == generation && rec.state == SlotState::kPending;
}

EventHandle Simulator::push_event(TimePoint when, std::uint64_t seq,
                                  std::int64_t scheduled_usec, Callback fn) {
  CANARY_CHECK(when >= now_, "cannot schedule an event in the past");
  const std::uint32_t slot = alloc_slot();
  EventRecord& rec = records_[slot];
  rec.fn = std::move(fn);
  rec.state = SlotState::kPending;
  rec.when_usec = when.count_usec();
  rec.seq = seq;
  rec.scheduled_usec = scheduled_usec;
  heap_push({rec.when_usec, seq, slot, rec.generation});
  ++live_count_;
  return EventHandle(this, slot, rec.generation);
}

EventHandle Simulator::schedule_at(TimePoint when, Callback fn) {
  return push_event(when, next_seq_++, now_.count_usec(), std::move(fn));
}

EventHandle Simulator::schedule_continuation(TimePoint when, Callback fn) {
  CANARY_CHECK(continuation_open_,
               "a continuation needs a dispatching event that has not "
               "scheduled one yet");
  continuation_open_ = false;
  // The dispatched entry has left the heap, so its sequence number is
  // free: (time, seq) stays unique among live entries.
  return push_event(when, dispatch_seq_,
                    dispatch_scheduled_at_.count_usec(), std::move(fn));
}

EventHandle Simulator::schedule_after(Duration delay, Callback fn) {
  CANARY_CHECK(delay >= Duration::zero(), "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / arity_;
    if (!heap_[i].before(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::heap_pop_root() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * arity_ + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + arity_, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

bool Simulator::entry_live(const HeapEntry& entry) const {
  const EventRecord& rec = records_[entry.slot];
  return rec.generation == entry.generation &&
         rec.state == SlotState::kPending && rec.when_usec == entry.when_usec;
}

void Simulator::discard_dead(const HeapEntry& entry) {
  // A cancelled event's slot is reclaimed at its first dead entry; any
  // other entry of that slot then fails the generation check.
  if (records_[entry.slot].generation == entry.generation &&
      records_[entry.slot].state == SlotState::kCancelled) {
    free_slot(entry.slot);
  }
}

const Simulator::HeapEntry* Simulator::peek_live() {
  while (!heap_.empty()) {
    if (entry_live(heap_[0])) return &heap_[0];
    discard_dead(heap_[0]);
    heap_pop_root();
  }
  return nullptr;
}

void Simulator::maybe_compact() {
  const std::size_t dead = heap_.size() - live_count_;
  if (dead < compact_min_ || dead * 2 < heap_.size()) return;
  // Sweep out every dead entry, reclaim cancelled slots, and rebuild the
  // heap in place. (time, seq) is a total order on the live entries, so
  // any valid heap over them dispatches in exactly the same sequence.
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (entry_live(entry)) {
      heap_[kept++] = entry;
    } else {
      discard_dead(entry);
    }
  }
  heap_.resize(kept);
  if (kept > 1) {
    for (std::size_t i = (kept - 2) / arity_ + 1; i-- > 0;) {
      // Sift down from the last parent to the root.
      std::size_t j = i;
      for (;;) {
        const std::size_t first_child = j * arity_ + 1;
        if (first_child >= kept) break;
        const std::size_t last_child = std::min(first_child + arity_, kept);
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (heap_[c].before(heap_[best])) best = c;
        }
        if (!heap_[best].before(heap_[j])) break;
        std::swap(heap_[j], heap_[best]);
        j = best;
      }
    }
  }
}

bool Simulator::dispatch_one() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    heap_pop_root();
    if (!entry_live(top)) {
      discard_dead(top);
      continue;
    }
    EventRecord& rec = records_[top.slot];
    now_ = TimePoint::from_usec(top.when_usec);
    dispatch_seq_ = top.seq;
    dispatch_scheduled_at_ = TimePoint::from_usec(rec.scheduled_usec);
    continuation_open_ = true;
    // Move the callback out and reclaim the slot *before* invoking: the
    // generation bump makes cancel-after-fire a no-op on every handle,
    // and the callback is free to schedule (growing the slab) without
    // invalidating anything we still hold.
    UniqueFunction fn = std::move(rec.fn);
    --live_count_;
    free_slot(top.slot);
    ++executed_;
    fn();
    continuation_open_ = false;
    dispatch_scheduled_at_ = TimePoint::max();
    return true;
  }
  return false;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && dispatch_one()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePoint until) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_) {
    const HeapEntry* head = peek_live();
    if (head == nullptr || head->when_usec > until.count_usec()) break;
    if (dispatch_one()) ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

bool Simulator::step() { return dispatch_one(); }

}  // namespace canary::sim

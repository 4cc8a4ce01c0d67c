#include "sim/simulator.hpp"

#include <algorithm>

#include "common/result.hpp"

namespace canary::sim {

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(slot_, generation_);
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
  ++cancelled_in_heap_;
  maybe_compact();
}

bool Simulator::slot_pending(std::uint32_t slot,
                             std::uint32_t generation) const {
  if (slot >= records_.size()) return false;
  const EventRecord& rec = records_[slot];
  return rec.generation == generation && rec.state == SlotState::kPending;
}

EventHandle Simulator::schedule_at(TimePoint when, Callback fn) {
  CANARY_CHECK(when >= now_, "cannot schedule an event in the past");
  const std::uint32_t slot = alloc_slot();
  EventRecord& rec = records_[slot];
  rec.fn = std::move(fn);
  rec.state = SlotState::kPending;
  heap_push({when.count_usec(), next_seq_++, slot, rec.generation});
  ++live_count_;
  return EventHandle(this, slot, rec.generation);
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
         rec.state == SlotState::kPending;
}

const Simulator::HeapEntry* Simulator::peek_live() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_[0];
    if (entry_live(top)) return &heap_[0];
    // Stale head: a cancelled event (reclaim its slot) or an entry whose
    // slot was already reclaimed by compaction.
    EventRecord& rec = records_[top.slot];
    if (rec.generation == top.generation &&
        rec.state == SlotState::kCancelled) {
      --cancelled_in_heap_;
      free_slot(top.slot);
    }
    heap_pop_root();
  }
  return nullptr;
}

void Simulator::maybe_compact() {
  if (cancelled_in_heap_ < compact_min_ ||
      cancelled_in_heap_ * 2 < heap_.size()) {
    return;
  }
  // Sweep out every dead entry, reclaim cancelled slots, and rebuild the
  // heap in place. (time, seq) is a total order, so any valid heap over
  // the surviving entries dispatches in exactly the same sequence.
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (entry_live(entry)) {
      heap_[kept++] = entry;
      continue;
    }
    EventRecord& rec = records_[entry.slot];
    if (rec.generation == entry.generation &&
        rec.state == SlotState::kCancelled) {
      free_slot(entry.slot);
    }
  }
  heap_.resize(kept);
  cancelled_in_heap_ = 0;
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
    EventRecord& rec = records_[top.slot];
    if (rec.generation != top.generation) continue;  // slot was compacted
    if (rec.state == SlotState::kCancelled) {
      --cancelled_in_heap_;
      free_slot(top.slot);
      continue;
    }
    now_ = TimePoint::from_usec(top.when_usec);
    // Move the callback out and reclaim the slot *before* invoking: the
    // generation bump makes cancel-after-fire a no-op on every handle,
    // and the callback is free to schedule (growing the slab) without
    // invalidating anything we still hold.
    UniqueFunction fn = std::move(rec.fn);
    --live_count_;
    free_slot(top.slot);
    ++executed_;
    fn();
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

#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace hsfi::sim {

void EventQueue::place(std::uint32_t slot_index) {
  Slot& s = slots_[slot_index];
  const std::int64_t ahead = (s.when >> kBucketShift) - cursor_;
  if (ahead < 0 || ahead >= static_cast<std::int64_t>(kBuckets)) {
    s.where = kInFar;
    far_.push_back(Entry{s.when, s.seq, slot_index, s.gen});
    std::push_heap(far_.begin(), far_.end(), far_later);
    return;
  }
  const auto bucket = static_cast<std::uint32_t>(s.when >> kBucketShift) & kMask;
  s.where = bucket;
  std::uint64_t& word = occupied_[bucket / 64];
  const std::uint64_t bit = std::uint64_t{1} << (bucket % 64);
  if ((word & bit) == 0) {
    word |= bit;
    summary_ |= std::uint64_t{1} << (bucket / 64);
    s.prev = s.next = kNoSlot;
    ends_[bucket].head = ends_[bucket].tail = slot_index;
    return;
  }
  // Walk back from the tail to the last event that fires no later. A new
  // event carries the largest seq, so this stops at the first one whose
  // time is <= s.when — in practice the tail itself.
  std::uint32_t after = ends_[bucket].tail;
  while (after != kNoSlot &&
         later(slots_[after].when, slots_[after].seq, s.when, s.seq)) {
    after = slots_[after].prev;
  }
  s.prev = after;
  s.next = after == kNoSlot ? ends_[bucket].head : slots_[after].next;
  if (s.next == kNoSlot) {
    ends_[bucket].tail = slot_index;
  } else {
    slots_[s.next].prev = slot_index;
  }
  if (after == kNoSlot) {
    ends_[bucket].head = slot_index;
  } else {
    slots_[after].next = slot_index;
  }
}

void EventQueue::unlink(std::uint32_t slot_index) noexcept {
  const Slot& s = slots_[slot_index];
  const std::uint32_t bucket = s.where;
  if (s.prev == kNoSlot) {
    ends_[bucket].head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNoSlot) {
    ends_[bucket].tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (ends_[bucket].head == kNoSlot) {
    std::uint64_t& word = occupied_[bucket / 64];
    word &= ~(std::uint64_t{1} << (bucket % 64));
    if (word == 0) summary_ &= ~(std::uint64_t{1} << (bucket / 64));
  }
}

void EventQueue::retire(std::uint32_t slot_index) noexcept {
  Slot& s = slots_[slot_index];
  if (++s.gen == 0) s.gen = 1;  // 0 is reserved for kInvalidEventId
  s.where = kRetired;
  s.next = free_head_;
  free_head_ = slot_index;
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen || gen == 0) return;
  Slot& s = slots_[slot];
  // Release captured resources now.
  s.action.reset();
  const bool in_far = s.where == kInFar;
  if (!in_far) unlink(slot);
  retire(slot);
  --live_;
  // The far-heap entry goes stale (its stamped generation no longer
  // matches); sweep once stale entries outnumber live ones.
  if (in_far && ++far_stale_ * 2 > far_.size()) compact_far();
}

void EventQueue::compact_far() {
  std::erase_if(far_, [this](const Entry& e) {
    return slots_[e.slot].gen != e.gen;
  });
  std::make_heap(far_.begin(), far_.end(), far_later);
  far_stale_ = 0;
}

std::uint32_t EventQueue::locate() {
  assert(live_ > 0);
  while (!far_.empty() && slots_[far_.front().slot].gen != far_.front().gen) {
    std::pop_heap(far_.begin(), far_.end(), far_later);
    far_.pop_back();
    --far_stale_;
  }
  // First occupied bucket at or after the cursor, circularly: every wheel
  // event lies in [cursor_, cursor_ + kBuckets), so circular index order
  // from the cursor is time order. That order visits the cursor's word
  // from the cursor up, the later words, the earlier words, and last the
  // cursor word's buckets below the cursor; summary_ finds the first
  // occupied word of each stretch in one step.
  std::uint32_t best = kNoSlot;
  const auto start = static_cast<std::uint32_t>(cursor_) & kMask;
  std::uint32_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  if (bits == 0 && summary_ != 0) {
    const std::uint64_t later_words =
        summary_ & ~(~std::uint64_t{0} >> (63 - w));  // words above w
    w = static_cast<std::uint32_t>(
        std::countr_zero(later_words != 0 ? later_words : summary_));
    bits = occupied_[w];
  }
  if (bits != 0) {
    best = ends_[w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits))]
               .head;
  }
  if (!far_.empty()) {
    const Entry& top = far_.front();
    if (best == kNoSlot ||
        later(slots_[best].when, slots_[best].seq, top.when, top.seq)) {
      best = top.slot;
    }
  }
  assert(best != kNoSlot);
  return best;
}

void EventQueue::take(std::uint32_t slot_index, Fired& out) {
  Slot& s = slots_[slot_index];
  if (s.where == kInFar) {
    assert(far_.front().slot == slot_index);
    std::pop_heap(far_.begin(), far_.end(), far_later);
    far_.pop_back();
  } else {
    unlink(slot_index);
  }
  // The popped event is the global minimum, so every wheel event still lies
  // at or after its bucket: the cursor may advance there but never beyond.
  cursor_ = std::max(cursor_, s.when >> kBucketShift);
  out.when = s.when;
  out.id = make_id(slot_index, s.gen);
  out.seq = s.seq;
  out.action = std::move(s.action);
  retire(slot_index);
  --live_;
}

EventQueue::Fired EventQueue::pop() {
  Fired fired;
  take(locate(), fired);
  return fired;
}

bool EventQueue::pop_due(SimTime until, Fired& out) {
  const std::uint32_t slot = locate();
  if (slots_[slot].when > until) return false;
  take(slot, out);
  return true;
}

EventQueue::Snapshot EventQueue::snapshot() const {
  Snapshot snap;
  snap.entries.reserve(live_);
  snap.slots.reserve(slots_.size());
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.action.clonable()) {
      throw std::logic_error(
          "EventQueue::snapshot: a pending action holds a move-only "
          "callable and cannot be captured");
    }
    Snapshot::SlotState state;
    state.action = s.action.clone();
    state.gen = s.gen;
    if (s.where == kRetired) {
      state.next_free = s.next;
    } else {
      snap.entries.push_back(Entry{s.when, s.seq, i, s.gen});
    }
    snap.slots.push_back(std::move(state));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const Entry& a, const Entry& b) { return far_later(b, a); });
  snap.free_head = free_head_;
  snap.next_seq = next_seq_;
  snap.cursor = cursor_;
  return snap;
}

void EventQueue::restore(const Snapshot& snap) {
  occupied_.fill(0);
  summary_ = 0;
  far_.clear();
  far_stale_ = 0;
  slots_.clear();
  slots_.resize(snap.slots.size());
  for (std::size_t i = 0; i < snap.slots.size(); ++i) {
    const Snapshot::SlotState& state = snap.slots[i];
    Slot& s = slots_[i];
    s.action = state.action.clone();
    s.gen = state.gen;
    s.next = state.next_free;
  }
  free_head_ = snap.free_head;
  next_seq_ = snap.next_seq;
  cursor_ = snap.cursor;
  // Entries arrive in (when, seq) order, so every wheel insert appends.
  for (const Entry& e : snap.entries) {
    Slot& s = slots_[e.slot];
    s.when = e.when;
    s.seq = e.seq;
    place(e.slot);
  }
  live_ = snap.entries.size();
}

}  // namespace hsfi::sim

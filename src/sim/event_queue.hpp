// Deterministic discrete-event queue.
//
// Events at equal timestamps are delivered in scheduling order (a strictly
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs and seeds.
//
// Internals (DESIGN.md "Kernel internals"): actions live in generation-
// stamped slots that never move. A two-tier calendar orders them. The near
// tier is a timing wheel of kBuckets buckets, each 2^kBucketShift ps wide,
// covering the buckets [cursor, cursor + kBuckets); a bucket is an intrusive
// doubly-linked list threaded through the slots and kept sorted by
// (when, seq), so the near future is scheduled, cancelled and popped in
// O(1). The far tier is a binary heap of 24-byte entries {when, seq, slot,
// gen} for everything beyond the wheel's horizon. Cancellation unlinks a
// wheel slot eagerly; a far-heap entry goes stale instead (its stamped
// generation no longer matches the slot) and is dropped when it surfaces
// or when stale entries outnumber live ones. Slots are recycled through an
// intrusive freelist, so steady-state scheduling allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace hsfi::sim {

/// Handle used to cancel a scheduled event: (slot index << 32) | generation.
/// A generation is never 0 and a slot's generation bumps every time the
/// event in it fires or is cancelled, so a stale handle can only collide
/// with a live one after 2^32 reuses of a single slot.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Action = sim::Action;

  /// Wheel geometry: 2048 buckets of 1.024 ns, a horizon of ~2.1 us. A
  /// bucket is a small fraction of a character time (12.5 ns Myrinet,
  /// 9.4 ns FC), so events a character apart rarely share one and an
  /// insert rarely walks back past a later event (DESIGN.md "Kernel
  /// internals" has the walk-back counts behind the choice).
  static constexpr int kBucketShift = 10;
  static constexpr std::uint32_t kBuckets = 2048;

  /// A pending event's ordering key and identity: the far heap's element
  /// type, and the form Snapshot stores live events in.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Schedules `f` at absolute time `when` and returns its id. The
  /// callable is built straight into its slot's Action (an Action argument
  /// is moved there), so scheduling never relocates it.
  template <typename F>
  EventId schedule(SimTime when, F&& f) {
    const std::uint32_t slot = claim_slot();
    try {
      slots_[slot].action.emplace(std::forward<F>(f));
    } catch (...) {
      release_slot(slot);
      throw;
    }
    return file(slot, when);
  }

  /// Cancels a pending event in O(1) amortized. Cancelling an already-
  /// fired, already-cancelled, or invalid id is a no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() { return slots_[locate()].when; }

  struct Fired {
    SimTime when = 0;
    EventId id = kInvalidEventId;
    /// 1-based schedule ordinal. Representation-independent provenance:
    /// equal-time events fire in increasing seq, and determinism digests
    /// key on it rather than on the slot/generation id encoding.
    std::uint64_t seq = 0;
    Action action;
  };

  /// Removes and returns the earliest live event. Precondition: !empty().
  Fired pop();

  /// Removes the earliest live event into `out` if it is due at or before
  /// `until` and returns true; otherwise leaves the queue untouched and
  /// returns false. Finds the front once, where next_time() followed by
  /// pop() would find it twice. Precondition: !empty().
  bool pop_due(SimTime until, Fired& out);

  /// Queue state at a point in time: every live event, slot generations,
  /// the freelist chain, the tie-break counter, the wheel cursor, and a
  /// deep copy of every pending action. Restoring it into a queue replays
  /// the identical (when, seq, slot, gen) pop order. Move-only (actions
  /// are), and restorable any number of times.
  struct Snapshot {
    struct SlotState {
      Action action;  ///< empty for retired slots
      std::uint32_t gen = 1;
      std::uint32_t next_free = 0xFFFFFFFFu;
    };
    std::vector<Entry> entries;  ///< live events only, in (when, seq) order
    std::vector<SlotState> slots;
    std::uint32_t free_head = 0xFFFFFFFFu;
    std::uint64_t next_seq = 1;
    std::int64_t cursor = 0;
  };

  /// Captures the queue. Throws std::logic_error if any pending action
  /// holds a move-only callable (see Action::clonable) — kernel events are
  /// expected to capture pointers and copyable values only.
  [[nodiscard]] Snapshot snapshot() const;

  /// Rewinds the queue to `snap` (deep-copying its actions, so the same
  /// snapshot can seed many forks). Actions captured in the snapshot keep
  /// their embedded pointers, so restore only makes sense into the same
  /// object graph the snapshot was taken from.
  void restore(const Snapshot& snap);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Slot::where values beyond the wheel bucket indices.
  static constexpr std::uint32_t kInFar = kBuckets;
  static constexpr std::uint32_t kRetired = kBuckets + 1;
  static constexpr std::uint32_t kMask = kBuckets - 1;
  static constexpr std::uint32_t kWords = kBuckets / 64;
  static_assert(kWords <= 64, "summary_ holds one bit per occupancy word");

  struct Slot {
    Action action;
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t prev = kNoSlot;
    /// Next slot in the bucket while in the wheel; next free slot while
    /// retired.
    std::uint32_t next = kNoSlot;
    std::uint32_t gen = 1;
    std::uint32_t where = kRetired;  ///< bucket index, kInFar or kRetired
  };

  static bool later(SimTime a_when, std::uint64_t a_seq, SimTime b_when,
                    std::uint64_t b_seq) noexcept {
    if (a_when != b_when) return a_when > b_when;
    return a_seq > b_seq;
  }
  static bool far_later(const Entry& a, const Entry& b) noexcept {
    return later(a.when, a.seq, b.when, b.seq);
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  /// A free slot index off the freelist, or a new slot; release_slot()
  /// hands back one that was claimed but never filed. Inline, with file(),
  /// because schedule() is a template instantiated at every call site.
  std::uint32_t claim_slot() {
    if (free_head_ == kNoSlot) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    return slot;
  }
  void release_slot(std::uint32_t slot_index) noexcept {
    slots_[slot_index].next = free_head_;
    free_head_ = slot_index;
  }
  /// Stamps a claimed slot (its action already set) with `when` and the
  /// next seq, places it, and returns its id.
  EventId file(std::uint32_t slot_index, SimTime when) {
    Slot& s = slots_[slot_index];
    s.when = when;
    s.seq = next_seq_++;
    place(slot_index);
    ++live_;
    return make_id(slot_index, s.gen);
  }

  /// Files a slot holding `when`/`seq` into the wheel if its bucket lies in
  /// [cursor, cursor + kBuckets), else into the far heap.
  void place(std::uint32_t slot_index);
  void unlink(std::uint32_t slot_index) noexcept;

  /// Slot of the earliest live event: the smaller of the first occupied
  /// wheel bucket's head and the far heap's top (stale tops are dropped
  /// first). Precondition: !empty().
  std::uint32_t locate();

  /// Moves the event in `slot_index` (as returned by locate()) into `out`
  /// and advances the cursor to its bucket.
  void take(std::uint32_t slot_index, Fired& out);

  /// Retires a slot after its event fired or was cancelled: bumps the
  /// generation (skipping 0, the invalid marker) and chains it on the
  /// freelist.
  void retire(std::uint32_t slot_index) noexcept;

  /// Drops every stale far-heap entry and re-heapifies the rest.
  void compact_far();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;  ///< scheduled and not yet fired/cancelled
  std::uint64_t next_seq_ = 1;

  /// Absolute bucket number (when >> kBucketShift) of the most recent pop;
  /// never decreases, and every wheel event lies in
  /// [cursor_, cursor_ + kBuckets).
  std::int64_t cursor_ = 0;
  /// First and last slot of each bucket, side by side so one cache line
  /// serves both; meaningful only while the bucket's occupied_ bit is set.
  struct Ends {
    std::uint32_t head;
    std::uint32_t tail;
  };
  std::array<Ends, kBuckets> ends_{};
  std::array<std::uint64_t, kWords> occupied_{};  ///< bit i: bucket i nonempty
  std::uint64_t summary_ = 0;  ///< bit w: occupied_[w] != 0

  std::vector<Entry> far_;     ///< min-heap by (when, seq), may hold stale
  std::size_t far_stale_ = 0;  ///< stale entries in far_
};

}  // namespace hsfi::sim

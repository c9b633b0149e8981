// Property test: the slot/generation EventQueue against a naive reference.
//
// The reference is a std::multimap<(when, schedule order), token> — the
// obviously-correct encoding of the queue's contract: events fire in time
// order, ties in scheduling order, cancellation removes exactly the one
// event named by the id. A seeded generator drives ~10k random
// schedule/cancel/fire operations through both implementations and checks
// they agree step for step, across several seeds (one of which stays on a
// single timestamp, the pure tie-break regime, and one of which cancels
// aggressively enough to churn the freelist hard). Further regimes aim at
// the seams of the two-tier calendar: a mix straddling the wheel horizon,
// peeks followed by earlier schedules, far-timeout cancel storms, and
// snapshots restored mid-lap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace {

using hsfi::sim::EventId;
using hsfi::sim::EventQueue;
using hsfi::sim::SimTime;

/// Reference model: key = (when, schedule counter) so equal times fire in
/// scheduling order; value = the token the real queue's action records.
class ReferenceQueue {
 public:
  std::uint64_t schedule(SimTime when, std::uint64_t token) {
    const std::uint64_t ref_id = next_id_++;
    by_id_.emplace(ref_id, pending_.emplace(std::make_pair(when, ref_id), token));
    return ref_id;
  }

  /// Returns true when the id named a pending event (mirrors the real
  /// queue's cancel-is-noop-after-fire semantics).
  bool cancel(std::uint64_t ref_id) {
    const auto it = by_id_.find(ref_id);
    if (it == by_id_.end()) return false;
    pending_.erase(it->second);
    by_id_.erase(it);
    return true;
  }

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] SimTime next_time() const {
    return pending_.begin()->first.first;
  }

  /// Pops the earliest event, returning (when, token).
  std::pair<SimTime, std::uint64_t> pop() {
    const auto it = pending_.begin();
    const std::pair<SimTime, std::uint64_t> out{it->first.first, it->second};
    by_id_.erase(it->first.second);
    pending_.erase(it);
    return out;
  }

 private:
  using Pending = std::multimap<std::pair<SimTime, std::uint64_t>, std::uint64_t>;
  Pending pending_;
  std::map<std::uint64_t, Pending::iterator> by_id_;
  std::uint64_t next_id_ = 1;
};

/// Drives one EventQueue and the reference in lockstep: every schedule,
/// cancel, peek and fire goes to both, and every observable result must
/// agree. `now` tracks the last fired time, as a simulator's clock would.
class Lockstep {
 public:
  EventId schedule(SimTime when) {
    const std::uint64_t token = next_token_++;
    const EventId id =
        queue_.schedule(when, [token, this] { fired_log_.push_back(token); });
    const std::uint64_t ref_id = reference_.schedule(when, token);
    EXPECT_NE(id, hsfi::sim::kInvalidEventId);
    EXPECT_TRUE(ids_seen_.insert(id).second)
        << "EventId " << id << " handed out twice while the first holder "
        << "could still cancel it";
    live_.push_back({id, ref_id});
    return id;
  }

  /// Cancels the live event at `index`; both sides must drop exactly it.
  void cancel(std::size_t index) {
    const Live victim = live_[index];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(index));
    queue_.cancel(victim.id);
    EXPECT_TRUE(reference_.cancel(victim.ref_id));
    queue_.cancel(victim.id);  // double-cancel must be a no-op
    EXPECT_EQ(queue_.size(), reference_.size());
  }

  /// Cancels `id` if it is still pending; returns whether it was.
  bool cancel_id(EventId id) {
    const auto it = std::find_if(live_.begin(), live_.end(),
                                 [id](const Live& l) { return l.id == id; });
    if (it == live_.end()) return false;
    cancel(static_cast<std::size_t>(it - live_.begin()));
    return true;
  }

  /// Rewinds the queue to `snap` (taken from it just now), either in place
  /// or by moving in a freshly restored queue. It must then go on agreeing
  /// with the untouched reference.
  void restore(const EventQueue::Snapshot& snap, bool in_place) {
    if (in_place) {
      queue_.restore(snap);
    } else {
      EventQueue fresh;
      fresh.restore(snap);
      queue_ = std::move(fresh);
    }
    EXPECT_EQ(queue_.size(), reference_.size());
  }

  /// Front time without popping; must agree with the reference.
  SimTime peek() {
    const SimTime t = queue_.next_time();
    EXPECT_EQ(t, reference_.next_time());
    return t;
  }

  /// Fires the front event; time, token, and fire order must agree.
  void fire() {
    ASSERT_FALSE(queue_.empty());
    ASSERT_EQ(queue_.next_time(), reference_.next_time());
    auto fired = queue_.pop();
    const auto expected = reference_.pop();
    EXPECT_EQ(fired.when, expected.first);
    EXPECT_GE(fired.when, now_);
    now_ = fired.when;
    fired.action();
    ASSERT_FALSE(fired_log_.empty());
    EXPECT_EQ(fired_log_.back(), expected.second) << "front events disagree";
    std::erase_if(live_, [&](const Live& l) { return l.id == fired.id; });
    // A fired id is dead: cancelling it must not disturb anything.
    queue_.cancel(fired.id);
    EXPECT_EQ(queue_.size(), reference_.size());
  }

  /// Remaining events fire in exactly the reference order.
  void drain() {
    while (!reference_.empty()) {
      ASSERT_FALSE(queue_.empty());
      auto fired = queue_.pop();
      const auto expected = reference_.pop();
      ASSERT_EQ(fired.when, expected.first);
      fired.action();
      ASSERT_EQ(fired_log_.back(), expected.second);
    }
    EXPECT_TRUE(queue_.empty());
    EXPECT_EQ(queue_.size(), 0u);
  }

  void check_sizes() const {
    ASSERT_EQ(queue_.size(), reference_.size());
    ASSERT_EQ(queue_.empty(), reference_.empty());
  }

  [[nodiscard]] SimTime now() const { return now_; }
  /// Moves the clock forward without firing, as Simulator::step(until)
  /// does when the front lies beyond `until`.
  void advance_to(SimTime t) { now_ = t; }
  [[nodiscard]] std::size_t live() const { return live_.size(); }
  [[nodiscard]] bool empty() const { return live_.empty(); }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  struct Live {
    EventId id;
    std::uint64_t ref_id;
  };
  EventQueue queue_;
  ReferenceQueue reference_;
  std::vector<Live> live_;
  std::vector<std::uint64_t> fired_log_;  // real queue appends on fire
  std::set<EventId> ids_seen_;            // no id reuse while generations hold
  std::uint64_t next_token_ = 1;
  SimTime now_ = 0;
};

struct Scenario {
  std::uint64_t seed;
  int ops;
  SimTime time_span;   ///< timestamps drawn from [now, now + span]
  int cancel_percent;  ///< weight of cancel ops (fires get the remainder)
};

class SimQueuePropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimQueuePropertyTest, AgreesWithNaiveMultimapReference) {
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed);
  Lockstep q;

  for (int op = 0; op < scenario.ops; ++op) {
    const auto roll = static_cast<int>(rng() % 100);
    if (roll < 50 || q.empty()) {
      // Schedule. A quarter of the draws land exactly on `now`, so the
      // tie-break path is exercised constantly, not incidentally.
      const SimTime when =
          scenario.time_span == 0 || rng() % 4 == 0
              ? q.now()
              : q.now() + static_cast<SimTime>(
                              rng() %
                              static_cast<std::uint64_t>(scenario.time_span));
      q.schedule(when);
    } else if (roll < 50 + scenario.cancel_percent) {
      q.cancel(rng() % q.live());
    } else {
      ASSERT_NO_FATAL_FAILURE(q.fire()) << "at op " << op;
    }
    ASSERT_NO_FATAL_FAILURE(q.check_sizes());
  }
  q.drain();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SimQueuePropertyTest,
    ::testing::Values(
        // The workhorse: mixed times, moderate cancellation.
        Scenario{0xA11CE, 10'000, 1'000'000, 20},
        // Single-timestamp regime: every comparison is a tie-break.
        Scenario{0xB0B, 10'000, 0, 20},
        // Cancel-heavy: churns generations and the slot freelist.
        Scenario{0xC0FFEE, 10'000, 1'000, 45},
        // Long horizon, rare cancels: deep heaps.
        Scenario{0xD15EA5E, 10'000, 1'000'000'000, 5}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

// ---------------------------------------------------------------------------
// Snapshot/restore: capturing the queue mid-scenario and restoring it must
// replay the identical (when, seq, slot, gen) pop order — not just the
// same tokens, but the same id encodings, because the orchestrator's
// snapshot/fork path restores a queue in place and outstanding EventIds
// must stay cancellable afterwards.

/// One popped event, fully identified: fire time, schedule ordinal, and
/// the slot/generation halves of the EventId.
struct PopRecord {
  SimTime when;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
  std::uint64_t token;

  bool operator==(const PopRecord&) const = default;
};

/// Drains `queue`, executing every action (tokens land in `log`) and
/// recording the full identity of each pop.
std::vector<PopRecord> drain(EventQueue& queue,
                             std::vector<std::uint64_t>& log) {
  std::vector<PopRecord> out;
  while (!queue.empty()) {
    auto fired = queue.pop();
    const std::size_t before = log.size();
    fired.action();
    const std::uint64_t token = log.size() > before ? log.back() : 0;
    out.push_back({fired.when, fired.seq,
                   static_cast<std::uint32_t>(fired.id >> 32),
                   static_cast<std::uint32_t>(fired.id & 0xFFFFFFFFu),
                   token});
  }
  return out;
}

class SimQueueSnapshotTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimQueueSnapshotTest, RestoreReplaysIdenticalPopOrder) {
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed);

  // Churn the queue with the scenario's op mix (schedule/cancel/pop) so
  // the snapshot lands on a non-trivial slot/generation/freelist state,
  // then capture mid-scenario.
  EventQueue queue;
  std::vector<std::uint64_t> log;  // actions append here when fired
  std::vector<EventId> live;
  std::uint64_t next_token = 1;
  SimTime now = 0;
  for (int op = 0; op < scenario.ops; ++op) {
    const auto roll = static_cast<int>(rng() % 100);
    if (roll < 50 || live.empty()) {
      const SimTime when =
          scenario.time_span == 0 || rng() % 4 == 0
              ? now
              : now + static_cast<SimTime>(
                          rng() % static_cast<std::uint64_t>(scenario.time_span));
      const std::uint64_t token = next_token++;
      live.push_back(
          queue.schedule(when, [token, &log] { log.push_back(token); }));
    } else if (roll < 50 + scenario.cancel_percent) {
      const std::size_t pick = rng() % live.size();
      queue.cancel(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (!queue.empty()) {
      auto fired = queue.pop();
      now = fired.when;
      fired.action();
      std::erase(live, fired.id);
    }
  }
  ASSERT_FALSE(queue.empty()) << "scenario must leave pending events";

  const EventQueue::Snapshot snap = queue.snapshot();

  // Original pop order, from the snapshot point to empty.
  log.clear();
  const auto original = drain(queue, log);
  const auto original_log = log;

  // One snapshot, two independent restores (a snapshot seeds many forks):
  // each must replay the identical order, ids included.
  for (int fork = 0; fork < 2; ++fork) {
    EventQueue restored;
    restored.restore(snap);
    ASSERT_EQ(restored.size(), snap.entries.size());
    log.clear();
    const auto replay = drain(restored, log);
    EXPECT_EQ(replay, original)
        << "fork " << fork << " diverged in (when, seq, slot, gen) order";
    EXPECT_EQ(log, original_log);
  }
}

TEST_P(SimQueueSnapshotTest, RestoredIdsStayCancellable) {
  // Ids minted before the snapshot must name the same events in the
  // restored queue: cancelling one there removes exactly that event.
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed ^ 0x5eedULL);

  EventQueue queue;
  std::vector<std::uint64_t> log;
  struct Live {
    EventId id;
    std::uint64_t token;
  };
  std::vector<Live> live;
  for (int i = 0; i < 200; ++i) {
    const SimTime when = scenario.time_span == 0
                             ? 0
                             : static_cast<SimTime>(
                                   rng() % static_cast<std::uint64_t>(
                                               scenario.time_span));
    const std::uint64_t token = 1000 + static_cast<std::uint64_t>(i);
    live.push_back(
        {queue.schedule(when, [token, &log] { log.push_back(token); }),
         token});
  }
  const EventQueue::Snapshot snap = queue.snapshot();

  EventQueue restored;
  restored.restore(snap);
  const Live victim = live[static_cast<std::size_t>(rng() % live.size())];
  restored.cancel(victim.id);
  EXPECT_EQ(restored.size(), queue.size() - 1);

  log.clear();
  drain(restored, log);
  EXPECT_EQ(std::count(log.begin(), log.end(), victim.token), 0)
      << "cancelling a pre-snapshot id must remove exactly that event";
  EXPECT_EQ(log.size(), live.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SimQueueSnapshotTest,
    ::testing::Values(
        // Cancel-heavy: the snapshot carries a churned freelist and many
        // retired generations.
        Scenario{0xC0FFEE, 10'000, 1'000, 45},
        // Single-timestamp: restored order is pure seq tie-breaking.
        Scenario{0xB0B, 10'000, 0, 20},
        // Three wheel horizons: the snapshot catches the cursor mid-lap
        // with events in both the wheel and the far heap.
        Scenario{0x1A9, 10'000, 3 * 2'097'152, 20}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

// ---------------------------------------------------------------------------
// Wheel regimes. The queue files events that lie within kBuckets buckets of
// its cursor into a timing wheel and everything else into a far heap.
// These regimes aim at the seams between the two tiers, each checked
// against the same multimap reference.

constexpr SimTime kBucket = SimTime{1} << EventQueue::kBucketShift;
constexpr SimTime kHorizon = kBucket * EventQueue::kBuckets;
constexpr std::uint64_t kRegimeSeeds[] = {1, 2, 3};

SimTime below(std::mt19937_64& rng, SimTime bound) {
  return static_cast<SimTime>(rng() % static_cast<std::uint64_t>(bound));
}

TEST(SimQueueWheelTest, BimodalMixStraddlesTheHorizon) {
  // 90% of events land within two buckets of now, 10% beyond 2.1 us: far
  // events drift into the wheel's range while they wait and must still
  // interleave with near ones in exact (when, seq) order.
  for (const std::uint64_t seed : kRegimeSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Lockstep q;
    for (int op = 0; op < 20'000; ++op) {
      const auto roll = rng() % 100;
      if (roll < 50 || q.empty()) {
        const SimTime delay = rng() % 10 < 9
                                  ? below(rng, 2 * kBucket)
                                  : 2'100'000 + below(rng, 4 * kHorizon);
        q.schedule(q.now() + delay);
      } else if (roll < 60) {
        q.cancel(rng() % q.live());
      } else {
        ASSERT_NO_FATAL_FAILURE(q.fire()) << "at op " << op;
      }
      ASSERT_NO_FATAL_FAILURE(q.check_sizes());
    }
    q.drain();
  }
}

TEST(SimQueueWheelTest, PeekThenScheduleEarlier) {
  // The Simulator::step(until) pattern: peek the front, find it beyond
  // `until`, move the clock to `until` without popping, then schedule
  // events before the peeked time, including in buckets the peek looked
  // past. Peeks repeat without pops in between.
  for (const std::uint64_t seed : kRegimeSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Lockstep q;
    for (int op = 0; op < 20'000; ++op) {
      const auto roll = rng() % 100;
      if (roll < 40 || q.empty()) {
        const SimTime delay = rng() % 2 == 0 ? below(rng, 4 * kBucket)
                                             : below(rng, 3 * kHorizon);
        q.schedule(q.now() + delay);
      } else if (roll < 50) {
        q.cancel(rng() % q.live());
      } else if (roll < 70) {
        const SimTime front = q.peek();
        if (front > q.now()) {
          const SimTime until = q.now() + below(rng, front - q.now());
          q.advance_to(until);
          for (auto k = rng() % 3; k-- > 0;) {
            q.schedule(until + below(rng, front - until + 1));
          }
          EXPECT_LE(q.peek(), front);
        }
      } else {
        ASSERT_NO_FATAL_FAILURE(q.fire()) << "at op " << op;
      }
      ASSERT_NO_FATAL_FAILURE(q.check_sizes());
    }
    q.drain();
  }
}

TEST(SimQueueWheelTest, FarCancelStorm) {
  // The switch long-timeout pattern: every packet arms a 50 ms timeout
  // and cancels it once the packet moves on, so nearly every far event
  // dies before it fires. Stale far entries must never surface, and a
  // snapshot must carry the live events only.
  constexpr SimTime kTimeout = 50'000'000'000;
  for (const std::uint64_t seed : kRegimeSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Lockstep q;
    for (int op = 0; op < 20'000; ++op) {
      q.schedule(q.now() + below(rng, kHorizon / 2));
      const EventId timeout = q.schedule(q.now() + kTimeout + below(rng, 1000));
      if (rng() % 100 < 95) {
        EXPECT_TRUE(q.cancel_id(timeout));
      }
      ASSERT_NO_FATAL_FAILURE(q.fire()) << "at op " << op;
      ASSERT_NO_FATAL_FAILURE(q.check_sizes());
      if (op % 1000 == 0) {
        EXPECT_EQ(q.queue().snapshot().entries.size(), q.queue().size());
      }
    }
    q.drain();
  }
}

TEST(SimQueueWheelTest, SnapshotMidLapRestoresIntoAgreement) {
  // Snapshots taken while the cursor is part-way round the wheel, with
  // pending events wrapped past the last bucket back to the first, must
  // restore into a queue that keeps agreeing with the reference.
  for (const std::uint64_t seed : kRegimeSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Lockstep q;
    int mid_lap_restores = 0;
    for (int op = 0; op < 20'000; ++op) {
      const auto roll = rng() % 100;
      if (roll < 50 || q.empty()) {
        const SimTime delay = rng() % 5 < 4
                                  ? below(rng, kHorizon)
                                  : kHorizon + below(rng, 2 * kHorizon);
        q.schedule(q.now() + delay);
      } else if (roll < 60) {
        q.cancel(rng() % q.live());
      } else {
        ASSERT_NO_FATAL_FAILURE(q.fire()) << "at op " << op;
      }
      if (op % 499 == 498) {
        const EventQueue::Snapshot snap = q.queue().snapshot();
        ASSERT_EQ(snap.entries.size(), q.queue().size());
        const std::int64_t lap_pos = snap.cursor % EventQueue::kBuckets;
        const bool wraps = std::any_of(
            snap.entries.begin(), snap.entries.end(),
            [&](const EventQueue::Entry& e) {
              const std::int64_t b = e.when >> EventQueue::kBucketShift;
              return b - snap.cursor < EventQueue::kBuckets &&
                     b % EventQueue::kBuckets < lap_pos;
            });
        if (wraps) {
          q.restore(snap, mid_lap_restores % 2 == 0);
          ++mid_lap_restores;
        }
      }
      ASSERT_NO_FATAL_FAILURE(q.check_sizes());
    }
    EXPECT_GE(mid_lap_restores, 10);
    q.drain();
  }
}

}  // namespace

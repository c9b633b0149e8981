// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hsfi::sim {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(to_nanoseconds(nanoseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7)), 7.0);
}

TEST(TimeTest, CharacterPeriodMatchesPaperRates) {
  // 80 MB/s => 12.5 ns per character; 160 MB/s => 6.25 ns.
  EXPECT_EQ(character_period_for_mbytes(80), picoseconds(12'500));
  EXPECT_EQ(character_period_for_mbytes(160), picoseconds(6'250));
}

TEST(TimeTest, FormatPicksReadableUnit) {
  EXPECT_EQ(format_time(nanoseconds(250)), "250 ns");
  EXPECT_EQ(format_time(microseconds(3)), "3 us");
  EXPECT_EQ(format_time(milliseconds(50)), "50 ms");
  EXPECT_EQ(format_time(seconds(2)), "2 s");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(RngTest, StreamsDiffer) {
  Rng a(42, 0), b(42, 1);
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) differ = a.next_u32() != b.next_u32();
  EXPECT_TRUE(differ);
}

TEST(RngTest, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(r.range(3, 3), 3);
  EXPECT_EQ(r.range(4, 2), 4);  // degenerate bounds clamp to lo
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&] { ++fired; });
  const EventId id = q.schedule(2, [&] { ++fired; });
  q.schedule(3, [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelFiredIdIsNoOp) {
  EventQueue q;
  const EventId id = q.schedule(1, [] {});
  q.pop().action();
  q.cancel(id);  // must not crash or corrupt
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInvalidIdIsNoOp) {
  EventQueue q;
  q.cancel(kInvalidEventId);
  q.cancel(12345);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SnapshotHoldsOnlyLiveEventsAfterCancelHeavyTraffic) {
  // The switch long-timeout pattern: each packet arms a 50 ms timeout and
  // cancels it when the packet moves on. A snapshot must carry exactly the
  // pending events, not the cancelled timeouts.
  EventQueue q;
  SimTime now = 0;
  for (int packet = 0; packet < 5000; ++packet) {
    q.schedule(now + nanoseconds(100), [] {});
    const EventId timeout = q.schedule(now + milliseconds(50), [] {});
    if (packet % 50 != 0) q.cancel(timeout);
    now = q.pop().when;
  }
  const EventQueue::Snapshot snap = q.snapshot();
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(snap.entries.size(), q.size());
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator s;
  SimTime seen = -1;
  s.schedule_in(nanoseconds(100), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, nanoseconds(100));
  EXPECT_EQ(s.now(), nanoseconds(100));
}

TEST(SimulatorTest, RunUntilStopsClockAtBound) {
  Simulator s;
  int fired = 0;
  s.schedule_in(nanoseconds(100), [&] { ++fired; });
  s.schedule_in(nanoseconds(300), [&] { ++fired; });
  s.run_until(nanoseconds(200));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), nanoseconds(200));
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(nanoseconds(10), recurse);
  };
  s.schedule_in(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), nanoseconds(40));
}

TEST(SimulatorTest, StopRequestHalts) {
  Simulator s;
  int fired = 0;
  s.schedule_in(1, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_in(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator s;
  s.schedule_in(nanoseconds(10), [&] {
    s.schedule_in(-nanoseconds(5), [&] { EXPECT_EQ(s.now(), nanoseconds(10)); });
  });
  s.run();
  EXPECT_EQ(s.executed_events(), 2u);
}

}  // namespace
}  // namespace hsfi::sim

// Buffer-reuse regression tests for the channel's in-flight FIFO and its
// delivery scratch.
//
// The contract under test (Burst doc, link/channel.hpp): delivered symbol
// storage is valid for the duration of on_burst — stable data, correct
// contents — and is reused afterwards, so steady-state traffic stops
// allocating. Symbols in flight live in the channel and travel with its
// captured State, so a restored channel replays them exactly. Under
// AddressSanitizer the delivery scratch is poisoned between deliveries;
// ChannelScratchDeathTest.PoisonAfterOnBurst proves the poison is really
// armed by reading a dangling span and expecting the process to die (the
// test is skipped in non-ASan builds, where the read is benign reused
// memory).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "link/channel.hpp"
#include "link/symbol.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define HSFI_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HSFI_TEST_ASAN 1
#endif
#endif

// Every allocation in the process, so the steady-state test can show the
// channel's warm delivery path makes none.
std::atomic<std::uint64_t> allocations{0};

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hsfi;
using link::Symbol;

constexpr sim::Duration kPeriod = sim::picoseconds(12'500);
constexpr sim::Duration kDelay = sim::nanoseconds(5);

std::vector<Symbol> payload(std::size_t n, std::uint8_t base) {
  std::vector<Symbol> symbols;
  for (std::size_t i = 0; i < n; ++i) {
    symbols.push_back(link::data_symbol(static_cast<std::uint8_t>(base + i)));
  }
  return symbols;
}

/// Sink that checks the documented lifetime from the inside: the data must
/// be readable and correct at the start and still identical at the end of
/// on_burst (no recycling while the callback runs).
class LifetimeCheckingSink : public link::SymbolSink {
 public:
  void on_burst(const link::Burst& burst) override {
    const std::vector<Symbol> first_read(burst.symbols.begin(),
                                         burst.symbols.end());
    // Interleave work that tempts the channel to reuse buffers if the
    // recycle point were wrong (it must be after on_burst returns).
    checksum_ = 0;
    for (const auto& s : burst.symbols) {
      checksum_ = checksum_ * 31 + s.data;
    }
    ASSERT_EQ(first_read, burst.symbols)
        << "burst data changed during on_burst";
    bursts_.push_back(first_read);
  }

  [[nodiscard]] const std::vector<std::vector<Symbol>>& bursts() const {
    return bursts_;
  }

 private:
  std::vector<std::vector<Symbol>> bursts_;
  std::uint64_t checksum_ = 0;
};

TEST(ChannelPool, BurstDataStableForDocumentedLifetime) {
  sim::Simulator simulator;
  link::Channel channel(simulator, "ch", kPeriod, kDelay);
  LifetimeCheckingSink sink;
  channel.attach(sink);

  const auto sent_a = payload(32, 0x10);
  const auto sent_b = payload(48, 0x40);
  channel.transmit(sent_a);
  channel.transmit(sent_b);
  simulator.run();

  ASSERT_EQ(sink.bursts().size(), 2u);
  EXPECT_EQ(sink.bursts()[0], sent_a);
  EXPECT_EQ(sink.bursts()[1], sent_b);
}

/// Sink that keeps nothing: counts and checksums what it sees, so a loop
/// of deliveries into it allocates only what the channel allocates.
class CountingSink : public link::SymbolSink {
 public:
  void on_burst(const link::Burst& burst) override {
    ++bursts;
    for (const auto& s : burst.symbols) {
      checksum = checksum * 31 + s.data;
      ++symbols;
    }
  }
  std::uint64_t bursts = 0;
  std::uint64_t symbols = 0;
  std::uint64_t checksum = 0;
};

TEST(ChannelPool, SteadyStateTrafficReusesBuffers) {
  sim::Simulator simulator;
  link::Channel channel(simulator, "ch", kPeriod, kDelay);
  CountingSink sink;
  channel.attach(sink);

  // One and three bursts in flight at a time, so both a lone delivery and
  // a FIFO holding several transmits are exercised.
  const auto symbols = payload(64, 0x20);
  const auto round = [&] {
    channel.transmit(symbols);
    simulator.run();
    for (int k = 0; k < 3; ++k) channel.transmit(symbols);
    simulator.run();
  };
  // Warm-up: the in-flight FIFO, the delivery scratch and the queue's
  // event slots grow to their working sizes here.
  for (int i = 0; i < 4; ++i) round();
  const std::uint64_t before = allocations.load();
  for (int i = 0; i < 100; ++i) round();
  const std::uint64_t during = allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "warm steady-state traffic is supposed to allocate nothing";
  EXPECT_EQ(sink.bursts, 104u * 4u);
  EXPECT_EQ(sink.symbols, 104u * 4u * 64u);
  EXPECT_TRUE(channel.capture_state().in_flight.empty());
}

/// Sink recording every burst with its timing, for replay comparisons.
class RecordingSink : public link::SymbolSink {
 public:
  struct Seen {
    sim::SimTime start;
    sim::SimTime end;
    std::vector<Symbol> symbols;
    bool operator==(const Seen&) const = default;
  };
  void on_burst(const link::Burst& burst) override {
    seen.push_back({burst.start, burst.end(),
                    {burst.symbols.begin(), burst.symbols.end()}});
  }
  std::vector<Seen> seen;
};

TEST(ChannelPool, RestoreReplaysSymbolsInFlight) {
  sim::Simulator simulator;
  link::Channel channel(simulator, "ch", kPeriod, kDelay);
  RecordingSink sink;
  channel.attach(sink);

  channel.transmit(payload(8, 0x10));
  channel.transmit(payload(16, 0x30));
  channel.transmit(payload(4, 0x50));
  // Deliver the first burst only: two transmits are still in flight.
  ASSERT_TRUE(simulator.step());
  ASSERT_EQ(sink.seen.size(), 1u);
  const auto kernel = simulator.snapshot();
  const auto state = channel.capture_state();
  ASSERT_EQ(state.in_flight.size(), 20u);

  sink.seen.clear();
  simulator.run();
  const auto reference = sink.seen;
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0].symbols, payload(16, 0x30));
  EXPECT_EQ(reference[1].symbols, payload(4, 0x50));

  // Diverge after the capture (more traffic through the same FIFO), then
  // rewind twice: each replay delivers the same bursts at the same times.
  channel.transmit(payload(32, 0x70));
  simulator.run();
  for (int replay = 0; replay < 2; ++replay) {
    simulator.restore(kernel);
    channel.restore_state(state);
    EXPECT_EQ(channel.capture_state().in_flight.size(), 20u);
    sink.seen.clear();
    simulator.run();
    EXPECT_EQ(sink.seen, reference) << "replay " << replay;
  }
}

/// Holds on to the span past on_burst — exactly what the lifetime contract
/// forbids.
class DanglingSink : public link::SymbolSink {
 public:
  void on_burst(const link::Burst& burst) override {
    data_ = burst.symbols.data();
    size_ = burst.symbols.size();
  }
  [[nodiscard]] const Symbol* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  const Symbol* data_ = nullptr;
  std::size_t size_ = 0;
};

TEST(ChannelScratchDeathTest, PoisonAfterOnBurst) {
#ifndef HSFI_TEST_ASAN
  GTEST_SKIP() << "poison detection needs an AddressSanitizer build";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        sim::Simulator simulator;
        link::Channel channel(simulator, "ch", kPeriod, kDelay);
        DanglingSink sink;
        channel.attach(sink);
        channel.transmit(payload(32, 0x30));
        simulator.run();
        // The buffer is back in the pool and poisoned; this read is the
        // use-after-recycle bug the poison exists to catch.
        volatile auto raw = sink.data()[0].data;
        (void)raw;
      },
      "use-after-poison");
#endif
}

}  // namespace

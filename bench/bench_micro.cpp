// Google-benchmark microbenchmarks for the hot datapath pieces: the
// Myrinet CRC-8 (recomputed per hop per byte), the FC CRC-32, the 8b/10b
// codec (one invocation per transmitted character), the FIFO injector's
// per-character clock, the UDP one's-complement checksum, the event
// queue under a campaign-shaped schedule/cancel/pop mix, one channel
// transmit-to-delivery round trip, and the control-symbol scan the burst
// readers step through every delivered burst.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/fifo_injector.hpp"
#include "fc/crc32.hpp"
#include "fc/enc8b10b.hpp"
#include "host/udp.hpp"
#include "link/channel.hpp"
#include "link/symbol.hpp"
#include "myrinet/crc8.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

std::vector<std::uint8_t> make_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 37);
  return v;
}

void BM_Crc8(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsfi::myrinet::crc8(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc8)->Arg(64)->Arg(256)->Arg(2048);

void BM_Crc32(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsfi::fc::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(256)->Arg(2048);

void BM_Encode8b10b(benchmark::State& state) {
  auto rd = hsfi::fc::Disparity::kMinus;
  std::uint8_t v = 0;
  for (auto _ : state) {
    const auto enc = hsfi::fc::encode_8b10b(hsfi::fc::Char8{v++, false}, rd);
    rd = enc->rd;
    benchmark::DoNotOptimize(enc->code);
  }
}
BENCHMARK(BM_Encode8b10b);

void BM_Decode8b10b(benchmark::State& state) {
  // Pre-encode a cycle of groups to decode.
  std::vector<std::uint16_t> groups;
  auto rd = hsfi::fc::Disparity::kMinus;
  for (int v = 0; v < 256; ++v) {
    const auto enc = hsfi::fc::encode_8b10b(
        hsfi::fc::Char8{static_cast<std::uint8_t>(v), false}, rd);
    groups.push_back(enc->code);
    rd = enc->rd;
  }
  std::size_t i = 0;
  rd = hsfi::fc::Disparity::kMinus;
  for (auto _ : state) {
    const auto dec = hsfi::fc::decode_8b10b(groups[i], rd);
    rd = dec.rd;
    benchmark::DoNotOptimize(dec.character.value);
    if (++i == groups.size()) {
      i = 0;
      rd = hsfi::fc::Disparity::kMinus;
    }
  }
}
BENCHMARK(BM_Decode8b10b);

void BM_FifoInjectorClock(benchmark::State& state) {
  hsfi::core::FifoInjector injector;
  auto& cfg = injector.config();
  cfg.match_mode = hsfi::core::MatchMode::kOn;
  cfg.compare_data = 0x00001818;
  cfg.compare_mask = 0x0000FFFF;
  cfg.corrupt_data = 0x00000100;
  std::uint8_t v = 0;
  for (auto _ : state) {
    const auto r = injector.clock(hsfi::link::data_symbol(v++));
    benchmark::DoNotOptimize(r.matched);
  }
  // Each iteration is one character = 12.5 ns of 80 MB/s wire time; report
  // the realized simulation speedup over real time.
  state.counters["chars/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FifoInjectorClock);

void BM_UdpChecksum(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsfi::host::ones_complement_checksum(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_UdpChecksum)->Arg(64)->Arg(1472);

void BM_EventQueueMix(benchmark::State& state) {
  // One iteration is one event: pop the front, advance the clock, and
  // schedule its successor, so the reported time is the kernel's ns per
  // event. Delays follow the spread measured on the bisect_fork workload:
  // 5% at now, ~42% under 33 ns, ~34% at 65-524 ns, ~19% near 1 us, and
  // 0.1% that also arm a 50 ms timeout, nine in ten of which are cancelled
  // on the next event (the switch long-timeout pattern). ~121 events stay
  // pending, as on that workload. Draws are precomputed so the loop times
  // the queue, not the generator.
  using hsfi::sim::Duration;
  using hsfi::sim::EventId;
  using hsfi::sim::EventQueue;
  using hsfi::sim::SimTime;
  constexpr std::size_t kDraws = 4096;
  constexpr Duration kArmTimeout = -1;  // marker in the delay table
  hsfi::sim::Rng rng(1);
  std::vector<Duration> delays(kDraws);
  std::vector<bool> cancel_timeout(kDraws);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double u = rng.uniform();
    delays[i] = u < 0.05    ? 0
                : u < 0.47  ? rng.range(1, 32'999)
                : u < 0.81  ? rng.range(65'000, 524'000)
                : u < 0.999 ? rng.range(950'000, 1'050'000)
                            : kArmTimeout;
    cancel_timeout[i] = rng.chance(0.9);
  }

  EventQueue queue;
  for (std::size_t i = 0; i < 121; ++i) {
    queue.schedule(delays[i] > 0 ? delays[i] : 1, [] {});
  }
  std::size_t k = 0;
  EventId timeout = hsfi::sim::kInvalidEventId;
  bool timeout_fired = false;  // an uncancelled timeout has no successor
  for (auto _ : state) {
    auto fired = queue.pop();
    const SimTime now = fired.when;
    fired.action();
    if (timeout_fired) {
      timeout_fired = false;
      continue;
    }
    if (timeout != hsfi::sim::kInvalidEventId) {
      if (cancel_timeout[k % kDraws]) queue.cancel(timeout);
      timeout = hsfi::sim::kInvalidEventId;
    }
    Duration delay = delays[k++ % kDraws];
    if (delay == kArmTimeout) {
      timeout = queue.schedule(now + 50'000'000'000,
                               [&timeout_fired] { timeout_fired = true; });
      delay = 1'000'000;
    }
    queue.schedule(now + delay, [] {});
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueMix);

// One channel transmit of range(0) symbols and its delivery: the FIFO push,
// the scheduled delivery event, the pop into the delivery scratch, and the
// sink call. Arg 1 is the injector's drain-tick burst, 2 a flow-control
// pair, 64 a forwarded packet body. The sink only reads.
void BM_ChannelTransmitDeliver(benchmark::State& state) {
  struct TouchSink final : hsfi::link::SymbolSink {
    void on_burst(const hsfi::link::Burst& burst) override {
      benchmark::DoNotOptimize(burst.symbols.data());
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<hsfi::link::Symbol> symbols;
  for (std::size_t i = 0; i < n; ++i) {
    symbols.push_back(hsfi::link::Symbol{static_cast<std::uint8_t>(i * 37),
                                         i % 8 == 7});
  }
  hsfi::sim::Simulator simulator;
  hsfi::link::Channel channel(simulator, "ch",
                              hsfi::sim::picoseconds(12'500),
                              hsfi::sim::nanoseconds(5));
  TouchSink sink;
  channel.attach(sink);
  for (auto _ : state) {
    channel.transmit(symbols);
    simulator.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChannelTransmitDeliver)->Arg(1)->Arg(2)->Arg(64);

// link::find_next_control stepped from hit to hit across range(0) symbols,
// one in eight a control character, the way StreamStats::feed_burst counts
// controls. Arg 1 is the injector's drain-tick burst; 2048 a long FC frame
// run.
void BM_FindNextControl(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<hsfi::link::Symbol> symbols;
  hsfi::sim::Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = rng.next_u64();
    symbols.push_back(hsfi::link::Symbol{static_cast<std::uint8_t>(bits),
                                         (bits >> 8) % 8 == 0});
  }
  for (auto _ : state) {
    std::size_t controls = 0;
    for (std::size_t i = hsfi::link::find_next_control(symbols, 0); i < n;
         i = hsfi::link::find_next_control(symbols, i + 1)) {
      ++controls;
    }
    benchmark::DoNotOptimize(controls);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FindNextControl)->Arg(1)->Arg(4)->Arg(64)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();

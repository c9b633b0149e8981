// Equivalence pins for the word-at-a-time datapath kernels.
//
// fc::Crc32::update(span) folds eight bytes per step; link::find_next_control
// and link::append_data read sixteen symbols per step. Each must agree with
// the byte- or symbol-at-a-time loop that lives on here as its reference
// oracle. The sweeps cover every length and start offset of a word step and
// every split of an incremental update, so a mistake in the step, the tail
// (fewer than sixteen symbols), or the hand-off between them shows.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "fc/crc32.hpp"
#include "link/symbol.hpp"

namespace hsfi {
namespace {

using link::Symbol;

// ---------------------------------------------------------------------------
// Oracles: the byte-at-a-time CRC-32 and the per-symbol scans.

constexpr std::array<std::uint32_t, 256> make_reference_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kReferenceCrc32Table =
    make_reference_crc32_table();

std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t state = 0xFFFFFFFFu;
  for (const auto b : bytes) {
    state = kReferenceCrc32Table[(state ^ b) & 0xFF] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

std::size_t reference_find_next_control(std::span<const Symbol> symbols,
                                        std::size_t from) {
  for (std::size_t i = from; i < symbols.size(); ++i) {
    if (symbols[i].control) return i;
  }
  return symbols.size();
}

void reference_append_data(std::span<const Symbol> symbols,
                           std::vector<std::uint8_t>& out) {
  for (const auto s : symbols) out.push_back(s.data);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return v;
}

// ---------------------------------------------------------------------------
// CRC-32

constexpr std::array<std::uint8_t, 9> kCheckMessage = {'1', '2', '3', '4', '5',
                                                       '6', '7', '8', '9'};
// The check vector, through the sliced kernel in a constant expression
// (one 8-byte step and a 1-byte tail).
static_assert(fc::crc32(kCheckMessage) == 0xCBF43926u);

TEST(Crc32KernelTest, EveryLengthAtEveryOffsetMatchesByteLoop) {
  constexpr std::size_t kMaxLen = 300;
  constexpr std::size_t kOffsets = 8;
  const auto buf = random_bytes(kMaxLen + kOffsets, 1);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> bytes(buf.data() + off, len);
      ASSERT_EQ(fc::crc32(bytes), reference_crc32(bytes))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32KernelTest, TwoIncrementalUpdatesMatchAtEverySplit) {
  const auto buf = random_bytes(300, 2);
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t want = reference_crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    fc::Crc32 c;
    c.update(all.first(split));
    c.update(all.subspan(split));
    ASSERT_EQ(c.value(), want) << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// link::find_next_control and link::append_data

std::vector<Symbol> random_symbols(std::size_t n, std::mt19937& rng) {
  std::vector<Symbol> symbols(n);
  // Control density varies per burst (none, sparse, dense, all) so whole
  // 16-symbol steps of every kind occur.
  const auto density = rng() % 4;
  for (auto& s : symbols) {
    const auto r = rng();
    const bool control = density == 0   ? false
                         : density == 1 ? (r >> 8) % 16 == 0
                         : density == 2 ? (r >> 8) % 2 == 0
                                        : true;
    s = Symbol{static_cast<std::uint8_t>(r & 0xFF), control};
  }
  return symbols;
}

TEST(BurstViewKernelTest, FindNextControlAgreesWithLinearScan) {
  // Every length 0-200, a single control at each position (and none), from
  // every start: covers the hit in a 16-symbol step, in the scalar tail,
  // and before or after `from`.
  for (std::size_t n = 0; n <= 200; ++n) {
    std::vector<Symbol> symbols(n, link::data_symbol(0xFF));
    for (std::size_t at = 0; at <= n; ++at) {
      if (at < n) symbols[at] = link::control_symbol(0x0C);
      for (std::size_t from = 0; from <= n + 1; ++from) {
        ASSERT_EQ(link::find_next_control(symbols, from),
                  reference_find_next_control(symbols, from))
            << "n " << n << " control at " << at << " from " << from;
      }
      if (at < n) symbols[at] = link::data_symbol(0xFF);
    }
  }
  // Random bursts, stepping hit to hit the way the readers do.
  std::mt19937 rng(6);
  for (std::size_t n = 0; n <= 200; ++n) {
    const auto symbols = random_symbols(n, rng);
    for (std::size_t from = 0; from <= n; ++from) {
      ASSERT_EQ(link::find_next_control(symbols, from),
                reference_find_next_control(symbols, from))
          << "n " << n << " from " << from;
    }
  }
}

TEST(BurstViewKernelTest, DirtyScratchLeavesNoControlBitsAboveLength) {
  // The channel reuses one delivery scratch; after a longer all-control
  // burst, the storage past a shorter burst's length still holds controls.
  // The 16-symbol steps must not read into it.
  std::vector<Symbol> scratch;
  for (std::size_t n = 0; n <= 200; ++n) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    scratch.assign(256, link::control_symbol(0xFF));
    scratch.assign(n, link::data_symbol(0xAA));
    for (std::size_t from = 0; from <= n; ++from) {
      ASSERT_EQ(link::find_next_control(scratch, from), n);
    }
    std::vector<std::uint8_t> bytes;
    link::append_data(scratch, bytes);
    ASSERT_EQ(bytes, std::vector<std::uint8_t>(n, 0xAA));
  }
}

TEST(BurstViewKernelTest, EveryLengthMatchesPerSymbolLoop) {
  // append_data onto an empty vector and onto one that already holds
  // bytes (with and without spare capacity), at every length 0-200 and
  // every start offset of a 16-symbol step.
  std::mt19937 rng(4);
  const auto symbols = random_symbols(216, rng);
  const std::span<const Symbol> all(symbols);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t n = 0; n <= 200; ++n) {
      const auto run = all.subspan(off, n);
      SCOPED_TRACE(testing::Message() << "offset " << off << " n " << n);

      std::vector<std::uint8_t> got;
      std::vector<std::uint8_t> want;
      link::append_data(run, got);
      reference_append_data(run, want);
      ASSERT_EQ(got, want);

      got = std::vector<std::uint8_t>{0x01, 0x02, 0x03};  // no spare capacity
      want = got;
      link::append_data(run, got);
      reference_append_data(run, want);
      ASSERT_EQ(got, want);

      got.reserve(got.size() + 300);
      link::append_data(run, got);
      reference_append_data(run, want);
      ASSERT_EQ(got, want);
    }
  }
}

}  // namespace
}  // namespace hsfi

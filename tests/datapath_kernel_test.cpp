// Equivalence pins for the word-at-a-time datapath kernels.
//
// fc::Crc32::update(span) folds eight bytes per step and Burst::build_view
// deinterleaves sixteen symbols per step. Both must be bit-identical to the
// byte- and symbol-at-a-time loops they replaced, which live on here as the
// reference oracles. The sweeps cover every length and start offset of a
// word step and every split of an incremental update, so a mistake in the
// step, the tail, or the hand-off between them shows.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "fc/crc32.hpp"
#include "link/channel.hpp"
#include "link/symbol.hpp"

namespace hsfi {
namespace {

using link::Burst;
using link::Symbol;

// ---------------------------------------------------------------------------
// Oracles: the byte-at-a-time CRC-32 and the per-symbol view loop.

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

/// The view as the per-symbol loop derived it: zero-filled mask, one bit
/// OR-ed in per symbol.
void reference_build_view(const std::vector<Symbol>& symbols,
                          std::vector<std::uint8_t>& data,
                          std::vector<std::uint64_t>& ctl) {
  const std::size_t n = symbols.size();
  data.resize(n);
  ctl.assign((n + 63) / 64, 0);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = symbols[i].data;
    ctl[i >> 6] |= static_cast<std::uint64_t>(symbols[i].control) << (i & 63);
  }
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
// Burst::build_view

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

void expect_view_matches_reference(const Burst& burst) {
  std::vector<std::uint8_t> data;
  std::vector<std::uint64_t> ctl;
  reference_build_view(burst.symbols, data, ctl);
  ASSERT_TRUE(burst.has_view());
  EXPECT_EQ(burst.data, data);
  EXPECT_EQ(burst.ctl, ctl);
}

TEST(BurstViewKernelTest, EveryLengthMatchesPerSymbolLoop) {
  std::mt19937 rng(4);
  for (std::size_t n = 0; n <= 200; ++n) {
    for (int rep = 0; rep < 4; ++rep) {
      Burst burst;
      burst.symbols = random_symbols(n, rng);
      burst.build_view();
      SCOPED_TRACE(testing::Message() << "n " << n << " rep " << rep);
      expect_view_matches_reference(burst);
      if (HasFailure()) return;
    }
  }
}

TEST(BurstViewKernelTest, DirtyScratchLeavesNoControlBitsAboveLength) {
  // The channel reuses one view scratch across deliveries; a shorter burst
  // after a longer all-control one must not inherit any of its bits.
  std::mt19937 rng(5);
  Burst burst;
  for (std::size_t n = 0; n <= 200; ++n) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    burst.symbols.assign(256, link::control_symbol(0xFF));
    burst.build_view();
    burst.symbols.assign(n, link::data_symbol(0xAA));
    burst.build_view();
    expect_view_matches_reference(burst);
    for (const auto word : burst.ctl) EXPECT_EQ(word, 0u);
    EXPECT_EQ(link::find_next_control(burst, 0), n);

    burst.symbols.assign(256, link::control_symbol(0xFF));
    burst.build_view();
    burst.symbols = random_symbols(n, rng);
    burst.build_view();
    expect_view_matches_reference(burst);
    if (n % 64 != 0) {
      EXPECT_EQ(burst.ctl.back() >> (n % 64), 0u);
    }
    if (HasFailure()) return;
  }
}

TEST(BurstViewKernelTest, FindNextControlAgreesWithLinearScan) {
  std::mt19937 rng(6);
  for (std::size_t n = 0; n <= 200; ++n) {
    Burst burst;
    burst.symbols = random_symbols(n, rng);
    burst.build_view();
    std::size_t next = n;
    for (std::size_t from = n + 1; from-- > 0;) {
      if (from < n && burst.symbols[from].control) next = from;
      ASSERT_EQ(link::find_next_control(burst, from), next)
          << "n " << n << " from " << from;
    }
  }
}

}  // namespace
}  // namespace hsfi

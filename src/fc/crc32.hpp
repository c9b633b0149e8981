// IEEE CRC-32 (polynomial 0x04C11DB7, reflected, init/xorout 0xFFFFFFFF),
// the FC-2 frame CRC mandated by FC-PH [ANS94].
//
// Spans are folded eight bytes per step (slicing-by-8). Table k maps a byte
// to the CRC of that byte followed by k zero bytes, so the eight lookups of
// one step together advance the register over all eight bytes: the bytes
// that overlap the register (state XOR the first four) and the four after it.
// The CRC is linear over GF(2), so this is bit-identical to the byte-at-a-time
// recurrence, which stays as update(uint8_t) for the tail and per-byte users.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace hsfi::fc {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit value of p[0..3], assembled from bytes (no aligned
/// or type-punned load; compilers fuse it into one unaligned load).
constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}
}  // namespace detail

class Crc32 {
 public:
  constexpr void update(std::uint8_t byte) noexcept {
    state_ = detail::kCrc32Tables[0][(state_ ^ byte) & 0xFF] ^ (state_ >> 8);
  }
  constexpr void update(std::span<const std::uint8_t> bytes) noexcept {
    const auto& t = detail::kCrc32Tables;
    const std::uint8_t* p = bytes.data();
    std::size_t n = bytes.size();
    std::uint32_t crc = state_;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = crc ^ detail::load_le32(p);
      const std::uint32_t hi = detail::load_le32(p + 4);
      crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    state_ = crc;
    for (; n > 0; --n) update(*p++);
  }
  [[nodiscard]] constexpr std::uint32_t value() const noexcept {
    return state_ ^ 0xFFFFFFFFu;
  }
  constexpr void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

[[nodiscard]] constexpr std::uint32_t crc32(
    std::span<const std::uint8_t> bytes) noexcept {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

}  // namespace hsfi::fc

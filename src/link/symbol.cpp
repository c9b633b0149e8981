#include "link/symbol.hpp"

#include <array>
#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace hsfi::link {

namespace {
constexpr std::array<char, 16> kHex = {'0', '1', '2', '3', '4', '5', '6', '7',
                                       '8', '9', 'A', 'B', 'C', 'D', 'E', 'F'};

#if defined(__SSE2__)
// s[0..15] are the (data, control) byte pairs symbol.hpp pins, so two
// unaligned 16-byte loads hold 16 symbols: the data byte is the low byte of
// each 16-bit lane and the control byte the high one.

/// Control bits of s[0..15], bit j for s[j]: the high bytes, packed,
/// compared against zero and gathered with movemask.
std::uint32_t control_mask16(const Symbol* s) noexcept {
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 8));
  const __m128i control =
      _mm_packus_epi16(_mm_srli_epi16(a, 8), _mm_srli_epi16(b, 8));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpgt_epi8(control, _mm_setzero_si128())));
}

/// Writes the data bytes of s[0..15] to d: the low bytes, packed.
void store_data16(const Symbol* s, std::uint8_t* d) noexcept {
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 8));
  const __m128i low_byte = _mm_set1_epi16(0x00FF);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(d),
                   _mm_packus_epi16(_mm_and_si128(a, low_byte),
                                    _mm_and_si128(b, low_byte)));
}
#endif

}  // namespace

std::size_t find_next_control(std::span<const Symbol> symbols,
                              std::size_t from) noexcept {
  const std::size_t n = symbols.size();
  const Symbol* s = symbols.data();
  std::size_t i = from;
#if defined(__SSE2__)
  for (; i + 16 <= n; i += 16) {
    if (const std::uint32_t mask = control_mask16(s + i); mask != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(mask));
    }
  }
#endif
  for (; i < n; ++i) {
    if (s[i].control) return i;
  }
  return n;
}

void append_data(std::span<const Symbol> symbols,
                 std::vector<std::uint8_t>& out) {
  const std::size_t n = symbols.size();
  const Symbol* s = symbols.data();
  const std::size_t base = out.size();
  // Short runs that fit push back one byte at a time: zero-filling a resize
  // first costs more than the copy. Growth always goes through resize, which
  // grows capacity the way a range insert does.
  if (n < 16 && out.capacity() - base >= n) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(s[i].data);
    return;
  }
  out.resize(base + n);
  std::uint8_t* d = out.data() + base;
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 16 <= n; i += 16) store_data16(s + i, d + i);
#endif
  for (; i < n; ++i) d[i] = s[i].data;
}

std::string to_string(Symbol s) {
  std::string out;
  if (s.control) out += 'c';
  out += kHex[(s.data >> 4) & 0xF];
  out += kHex[s.data & 0xF];
  return out;
}

std::string to_string(const std::vector<Symbol>& symbols) {
  std::string out;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (i != 0) out += ' ';
    out += to_string(symbols[i]);
  }
  return out;
}

}  // namespace hsfi::link

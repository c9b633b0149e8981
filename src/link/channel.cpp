#include "link/channel.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace hsfi::link {

namespace {

#if defined(__SSE2__)
/// Deinterleaves s[0..15] (the (data, control) byte pairs that symbol.hpp
/// pins): writes the 16 data bytes to d and returns the control bits,
/// bit j for s[j]. Data bytes are the low byte of each 16-bit lane, packed;
/// control bytes are the high byte, packed, compared against zero and
/// gathered with movemask.
std::uint32_t deinterleave16(const Symbol* s, std::uint8_t* d) noexcept {
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 8));
  const __m128i low_byte = _mm_set1_epi16(0x00FF);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(d),
                   _mm_packus_epi16(_mm_and_si128(a, low_byte),
                                    _mm_and_si128(b, low_byte)));
  const __m128i control =
      _mm_packus_epi16(_mm_srli_epi16(a, 8), _mm_srli_epi16(b, 8));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpgt_epi8(control, _mm_setzero_si128())));
}
#endif

}  // namespace

void Burst::build_view() {
  const std::size_t n = symbols.size();
  data.resize(n);
  ctl.resize((n + 63) / 64);
  const Symbol* s = symbols.data();
  std::uint8_t* d = data.data();
  // Each ctl word is assembled in a register and stored once, so bits at
  // and above n in the last word are zero whatever the scratch held
  // (find_next_control relies on it). Targets without SSE2 take the
  // per-symbol loop for the whole word.
  std::size_t i = 0;
  for (auto& word_out : ctl) {
    const std::size_t end = std::min(n, i + 64);
    std::uint64_t word = 0;
#if defined(__SSE2__)
    for (; i + 16 <= end; i += 16) {
      word |= std::uint64_t{deinterleave16(s + i, d + i)} << (i & 63);
    }
#endif
    for (; i < end; ++i) {
      d[i] = s[i].data;
      word |= std::uint64_t{s[i].control} << (i & 63);
    }
    word_out = word;
  }
}

std::size_t find_next_control(const Burst& burst, std::size_t from) noexcept {
  const std::size_t n = burst.symbols.size();
  if (from >= n) return n;
  std::size_t w = from >> 6;
  // Bits above n - 1 in the last word are never set (build_view writes
  // whole words), so a hit is always a valid index.
  std::uint64_t word = burst.ctl[w] & (~std::uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w == burst.ctl.size()) return n;
    word = burst.ctl[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
}

Channel::Channel(sim::Simulator& simulator, std::string name,
                 sim::Duration character_period,
                 sim::Duration propagation_delay)
    : simulator_(simulator),
      name_(std::move(name)),
      character_period_(character_period),
      propagation_delay_(propagation_delay) {
  scratch_.period = character_period_;
}

Channel::~Channel() {
  // The scratch's own deallocation must not run against poisoned storage.
  unpoison_capacity(scratch_.symbols);
}

sim::SimTime Channel::transmit(std::span<const Symbol> symbols) {
  if (symbols.empty()) return simulator_.now();
  const sim::SimTime start =
      tx_free_at_ > simulator_.now() ? tx_free_at_ : simulator_.now();
  const auto n = static_cast<sim::Duration>(symbols.size());
  tx_free_at_ = start + character_period_ * n;
  symbols_sent_ += symbols.size();

  if (!connected_) {
    symbols_lost_ += symbols.size();
    return tx_free_at_;
  }
  if (sink_ == nullptr) return tx_free_at_;

  // Deliver when the *first* symbol's trailing edge arrives; the sink uses
  // Burst::arrival() for per-symbol times within the burst. The payload
  // waits in the channel's FIFO and the event carries only its count, so
  // the capture is trivially copyable (snapshots clone it for free) and
  // steady-state traffic allocates nothing once the FIFO is warm.
  in_flight_.push(symbols);
  SymbolSink* sink = sink_;
  const sim::SimTime arrive = start + propagation_delay_;
  simulator_.schedule_at(arrive + character_period_,
                         [this, sink, arrive, count = symbols.size()] {
                           deliver(sink, arrive, count);
                         });
  return tx_free_at_;
}

void Channel::deliver(SymbolSink* sink, sim::SimTime start,
                      std::size_t count) {
  unpoison_capacity(scratch_.symbols);
  in_flight_.pop_into(count, scratch_.symbols);
  scratch_.start = start;
  scratch_.build_view();
  sink->on_burst(scratch_);
  poison_capacity(scratch_.symbols);
}

}  // namespace hsfi::link

#include "myrinet/framing.hpp"

#include <cassert>
#include <utility>

namespace hsfi::myrinet {

void Deframer::feed(link::Symbol symbol, sim::SimTime when) {
  if (!symbol.control) {
    current_.push_back(symbol.data);
    return;
  }
  const auto decoded = decode_control(symbol.data);
  if (!decoded) {
    ++ignored_;
    return;
  }
  switch (*decoded) {
    case ControlSymbol::kIdle:
      break;
    case ControlSymbol::kGap:
      if (!current_.empty()) {
        ++frames_;
        if (frame_handler_) frame_handler_(std::move(current_), when);
        current_.clear();
      }
      break;
    case ControlSymbol::kGo:
    case ControlSymbol::kStop:
      if (flow_handler_) flow_handler_(*decoded, when);
      break;
  }
}

void Deframer::feed_burst(const link::Burst& burst) {
  assert(burst.has_view());
  const std::size_t n = burst.symbols.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t c = link::find_next_control(burst, i);
    if (c > i) {
      current_.insert(current_.end(),
                      burst.data.begin() + static_cast<std::ptrdiff_t>(i),
                      burst.data.begin() + static_cast<std::ptrdiff_t>(c));
      i = c;
    }
    if (i == n) break;
    feed(burst.symbols[i], burst.arrival(i));
    ++i;
  }
}

std::vector<link::Symbol> frame_symbols(
    std::span<const std::uint8_t> packet_bytes) {
  std::vector<link::Symbol> symbols;
  frame_symbols_into(packet_bytes, symbols);
  return symbols;
}

void frame_symbols_into(std::span<const std::uint8_t> packet_bytes,
                        std::vector<link::Symbol>& out) {
  out.clear();
  out.reserve(packet_bytes.size() + 1);
  for (const auto b : packet_bytes) out.push_back(link::data_symbol(b));
  out.push_back(to_symbol(ControlSymbol::kGap));
}

}  // namespace hsfi::myrinet

#include "link/symbol_fifo.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace hsfi::link {

void SymbolFifo::grow(std::size_t needed) {
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(needed, 64));
  std::vector<Symbol> bigger;
  bigger.reserve(capacity);
  copy_out(size_, bigger);
  bigger.resize(capacity);
  ring_ = std::move(bigger);
  head_ = 0;
}

std::vector<Symbol> SymbolFifo::contents() const {
  std::vector<Symbol> out;
  copy_out(size_, out);
  return out;
}

void SymbolFifo::assign(std::span<const Symbol> symbols) {
  head_ = 0;
  size_ = 0;
  push(symbols);
}

}  // namespace hsfi::link

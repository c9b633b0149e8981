#include "link/symbol_pool.hpp"

#include <utility>

#include "link/symbol_fifo.hpp"

namespace hsfi::link {

SymbolBufferPool::~SymbolBufferPool() {
  // The vectors' own deallocation must not run against poisoned storage.
  for (const auto& buffer : free_) unpoison_capacity(buffer);
}

std::vector<Symbol> SymbolBufferPool::acquire() {
  ++acquires_;
  if (free_.empty()) return {};
  ++reuses_;
  std::vector<Symbol> buffer = std::move(free_.back());
  free_.pop_back();
  unpoison_capacity(buffer);
  buffer.clear();
  return buffer;
}

void SymbolBufferPool::release(std::vector<Symbol>&& buffer) {
  if (free_.size() >= max_free_ || buffer.capacity() == 0) return;
  poison_capacity(buffer);
  free_.push_back(std::move(buffer));
}

}  // namespace hsfi::link

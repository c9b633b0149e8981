// Freelist of symbol buffers for steady-state zero-allocation traffic.
//
// A producer that hands whole symbol vectors around (fc::FcPort's per-frame
// transmit buffers) recycles them here instead of allocating one per use:
// release() parks a buffer (capacity intact), acquire() hands it back out.
// Under AddressSanitizer the parked buffer's storage is poisoned, so a
// reader that holds on to a span into it past its lifetime crashes loudly
// in CI instead of silently reading recycled data.
#pragma once

#include <cstdint>
#include <vector>

#include "link/symbol.hpp"

namespace hsfi::link {

class SymbolBufferPool {
 public:
  /// `max_free` bounds parked buffers; beyond it, release() simply frees.
  explicit SymbolBufferPool(std::size_t max_free = 8) : max_free_(max_free) {}
  ~SymbolBufferPool();

  SymbolBufferPool(const SymbolBufferPool&) = delete;
  SymbolBufferPool& operator=(const SymbolBufferPool&) = delete;

  /// An empty buffer, reusing a parked one's capacity when available.
  [[nodiscard]] std::vector<Symbol> acquire();

  /// Parks `buffer` for reuse (poisoned under ASan until re-acquired).
  void release(std::vector<Symbol>&& buffer);

  [[nodiscard]] std::uint64_t acquires() const noexcept { return acquires_; }
  /// Acquires served from a parked buffer instead of a fresh allocation.
  [[nodiscard]] std::uint64_t reuses() const noexcept { return reuses_; }

 private:
  std::vector<std::vector<Symbol>> free_;
  std::size_t max_free_;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace hsfi::link

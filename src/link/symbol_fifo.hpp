// First-in first-out store for symbols in flight.
//
// A Channel's deliveries fire in transmit order (start times strictly
// increase and the propagation delay is constant), and a switch output's
// forwarding batches fire in flush order (the forwarding latency is
// constant), so each can keep its in-flight symbols in one ring instead of
// inside the events: the event carries only a count, and its fire-time
// half pops that many symbols off the front. The ring grows to the next
// power of two that fits and never shrinks, so once warm it allocates
// nothing. push() and pop_into() run once per event on the hottest paths
// in the tree, so they are inline.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "link/symbol.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define HSFI_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HSFI_ASAN 1
#endif
#endif

#ifdef HSFI_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace hsfi::link {

class SymbolFifo {
 public:
  /// Appends `symbols` at the back.
  void push(std::span<const Symbol> symbols) {
    const std::size_t n = symbols.size();
    if (size_ + n > ring_.size()) grow(size_ + n);
    const std::size_t tail = (head_ + size_) & (ring_.size() - 1);
    const std::size_t first = ring_.size() - tail;
    if (n <= first) {
      copy(symbols.data(), n, ring_.data() + tail);
    } else {
      copy(symbols.data(), first, ring_.data() + tail);
      copy(symbols.data() + first, n - first, ring_.data());
    }
    size_ += n;
  }

  /// Removes the `n` oldest symbols into `out`, replacing its contents.
  /// Precondition: at least `n` symbols are held.
  void pop_into(std::size_t n, std::vector<Symbol>& out) {
    copy_out(n, out);
    size_ -= n;
    // An emptied ring restarts at 0, so the common drain-to-empty traffic
    // keeps every batch contiguous.
    head_ = size_ == 0 ? 0 : (head_ + n) & (ring_.size() - 1);
  }

  /// Every symbol held, oldest first (for state capture).
  [[nodiscard]] std::vector<Symbol> contents() const;

  /// Replaces the contents with `symbols`, oldest first.
  void assign(std::span<const Symbol> symbols);

 private:
  /// Element-wise copy: most batches are one or two symbols.
  static void copy(const Symbol* from, std::size_t n, Symbol* to) noexcept {
    for (std::size_t i = 0; i < n; ++i) to[i] = from[i];
  }

  /// Replaces `out`'s contents with the `n` oldest symbols, leaving them
  /// in the ring. Precondition: n <= size_.
  void copy_out(std::size_t n, std::vector<Symbol>& out) const {
    assert(n <= size_);
    const Symbol* front = ring_.data() + head_;
    const std::size_t first = ring_.size() - head_;
    if (n <= first) {
      out.assign(front, front + n);
    } else {
      out.assign(front, front + first);
      out.insert(out.end(), ring_.data(), ring_.data() + (n - first));
    }
  }

  /// Reallocates the ring to the next power of two holding `needed`
  /// symbols, unwrapping the contents to its front.
  void grow(std::size_t needed);

  std::vector<Symbol> ring_;  ///< size 0 or a power of two
  std::size_t head_ = 0;      ///< index of the oldest symbol
  std::size_t size_ = 0;
};

/// Marks a buffer's whole capacity unaddressable under AddressSanitizer
/// (no-op in other builds), so a reader holding a span into it past its
/// documented lifetime faults; unpoison before the buffer is written again
/// or freed.
inline void poison_capacity(const std::vector<Symbol>& buffer) noexcept {
#ifdef HSFI_ASAN
  if (buffer.capacity() != 0) {
    __asan_poison_memory_region(buffer.data(),
                                buffer.capacity() * sizeof(Symbol));
  }
#else
  (void)buffer;
#endif
}

inline void unpoison_capacity(const std::vector<Symbol>& buffer) noexcept {
#ifdef HSFI_ASAN
  if (buffer.capacity() != 0) {
    __asan_unpoison_memory_region(buffer.data(),
                                  buffer.capacity() * sizeof(Symbol));
  }
#else
  (void)buffer;
#endif
}

}  // namespace hsfi::link

// Counting replacements for the global allocation functions. Every variant
// of operator new funnels into counted_alloc; deallocation is plain free.
#include "count_alloc.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// One cache line of counters per thread slot, so concurrent workers never
// bounce a shared line on every allocation (which would slow exactly the
// allocation-heavy code being measured). Threads beyond kSlots share slots;
// the adds stay atomic, so the totals stay exact.
constexpr std::size_t kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
};
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

Slot& my_slot() noexcept {
  thread_local Slot& slot =
      g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  return slot;
}

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  Slot& slot = my_slot();
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

AllocCounts alloc_counts() noexcept {
  AllocCounts total;
  for (const Slot& s : g_slots) {
    total.calls += s.calls.load(std::memory_order_relaxed);
    total.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

void reset_alloc_counts() noexcept {
  for (Slot& s : g_slots) {
    s.calls.store(0, std::memory_order_relaxed);
    s.bytes.store(0, std::memory_order_relaxed);
  }
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

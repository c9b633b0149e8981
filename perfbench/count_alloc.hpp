// Process-wide heap counters fed by the replaceable global operator new in
// count_alloc.cpp. Compiled into the benchmark binary only: the library
// itself is untouched, so the counts cover everything the process does.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t calls = 0;  ///< operator new invocations (every variant)
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Counts since the last reset_alloc_counts() (relaxed reads; call while
/// the measured work is quiescent).
[[nodiscard]] AllocCounts alloc_counts() noexcept;
void reset_alloc_counts() noexcept;

}  // namespace perfbench

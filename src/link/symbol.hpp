// The 9-bit Myrinet character: 8 data bits plus the Data/Control bit.
//
// The paper (Fig. 7/8): "These control symbols are distinguished from data by
// a Data/Control bit separate from the 8-bit data path. This D/C bit is 1 for
// data, and 0 for control symbols."
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace hsfi::link {

struct Symbol {
  std::uint8_t data = 0;
  bool control = false;  ///< true = control symbol (paper's D/C bit == 0)

  friend constexpr auto operator<=>(const Symbol&, const Symbol&) = default;
};

// find_next_control and append_data read a Symbol array as interleaved
// (data, control) byte pairs, 16 symbols per vector step; these pin the
// layout they rely on.
static_assert(sizeof(Symbol) == 2);
static_assert(offsetof(Symbol, data) == 0);
static_assert(offsetof(Symbol, control) == 1);
static_assert(std::is_trivially_copyable_v<Symbol>);

constexpr Symbol data_symbol(std::uint8_t b) noexcept { return Symbol{b, false}; }
constexpr Symbol control_symbol(std::uint8_t b) noexcept { return Symbol{b, true}; }

/// Index of the first control symbol at or after `from`, or symbols.size()
/// when the rest is all data.
[[nodiscard]] std::size_t find_next_control(std::span<const Symbol> symbols,
                                            std::size_t from) noexcept;

/// Appends the data byte of every symbol in `symbols` to `out` (callers pass
/// a run of data symbols, as found between find_next_control hits).
void append_data(std::span<const Symbol> symbols,
                 std::vector<std::uint8_t>& out);

/// "D3" for data 0xD3, "c0C" for control 0x0C — used in traces and captures.
std::string to_string(Symbol s);

/// Renders a stream like "D3 41 c0C ..." for captures and stream dumps.
std::string to_string(const std::vector<Symbol>& symbols);

}  // namespace hsfi::link

// Statistics gathering on the monitored stream.
//
// Paper §3.2: "the FPGA can gather statistics about the fault injection
// campaign. For instance, data-link packet data such as source and
// destination identifier numbers can be monitored, with counters
// incremented for each packet seen with these identifiers."
//
// The monitor deframes the stream it watches and, for data packets whose
// payload is long enough to carry the host stack's destination/source
// identifiers (two 48-bit physical addresses, as in §4.3.3), counts packets
// per (src, dst) pair. Control symbols and packet types are counted too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "link/symbol.hpp"
#include "myrinet/addr.hpp"
#include "myrinet/framing.hpp"
#include "myrinet/packet.hpp"
#include "sim/time.hpp"

namespace hsfi::core {

class StreamStats {
 public:
  struct Counters {
    std::uint64_t characters = 0;
    std::uint64_t control_symbols = 0;
    std::uint64_t gaps = 0;
    std::uint64_t stops = 0;
    std::uint64_t gos = 0;
    std::uint64_t frames = 0;
    std::uint64_t data_frames = 0;
    std::uint64_t mapping_frames = 0;
    std::uint64_t other_frames = 0;
    std::uint64_t crc_bad_frames = 0;
  };

  StreamStats();

  void feed(link::Symbol s, sim::SimTime when);

  /// Whole-burst feed: the character count advances by the burst length,
  /// control and GAP counts by stepping find_next_control over the control
  /// positions only, and the deframer consumes data runs in bulk.
  /// Equivalent to per-symbol feed().
  void feed_burst(const link::Burst& burst);

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// Packets seen per (destination, source) identifier pair.
  using PairKey = std::pair<std::uint64_t, std::uint64_t>;  // dst, src as u64
  [[nodiscard]] const std::map<PairKey, std::uint64_t>& pair_counts()
      const noexcept {
    return pairs_;
  }

  void clear();

  /// Serial "STAT" readout.
  [[nodiscard]] std::string render() const;

  /// Data-only snapshot state. The deframer's handlers bind `this` in the
  /// constructor and must never be copied between instances, so the state
  /// carries the deframer's data, not the deframer.
  struct State {
    myrinet::Deframer::State deframer;
    Counters counters;
    std::map<PairKey, std::uint64_t> pairs;
  };

  [[nodiscard]] State capture_state() const {
    return State{deframer_.capture_state(), counters_, pairs_};
  }
  void restore_state(const State& state) {
    deframer_.restore_state(state.deframer);
    counters_ = state.counters;
    pairs_ = state.pairs;
  }

 private:
  void on_frame(const std::vector<std::uint8_t>& frame);

  myrinet::Deframer deframer_;
  Counters counters_;
  std::map<PairKey, std::uint64_t> pairs_;
};

}  // namespace hsfi::core

// Point-to-point symbol channels.
//
// A Channel is one direction of a physical cable: it serializes symbols at
// the channel's character period and delivers them, after the propagation
// delay, as a Burst to the attached sink. Bursts (rather than one event per
// character) keep long campaigns tractable; the Myrinet slack buffer exists
// precisely to absorb the in-flight data this granularity implies (see
// DESIGN.md section 4.1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "link/symbol.hpp"
#include "link/symbol_fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hsfi::link {

/// A group of consecutive symbols on the wire. symbols[i] finishes arriving
/// at `start + (i + 1) * period`.
///
/// Lifetime: a Burst delivered to SymbolSink::on_burst — including its
/// `symbols` storage and the SoA view — is the channel's one reused
/// delivery scratch, valid only until on_burst returns; the next delivery
/// overwrites it. Sinks that need the data longer must copy it. Under
/// AddressSanitizer the scratch's `symbols` storage is poisoned between
/// deliveries, so use past the lifetime faults in CI.
///
/// Structure-of-arrays view: channels deliver bursts with `data` (the data
/// byte of every symbol, contiguous) and `ctl` (a bitmask, bit (i % 64) of
/// ctl[i / 64] set when symbols[i] is a control character) filled, so batch
/// consumers can scan control positions word-at-a-time and bulk-copy data
/// runs without re-touching Symbol structs. The view is part of the
/// on_burst contract (see SymbolSink); hand-built bursts call build_view()
/// before handing one to a sink.
struct Burst {
  sim::SimTime start = 0;      ///< arrival time of the first symbol's leading edge
  sim::Duration period = 0;    ///< character period
  std::vector<Symbol> symbols;
  std::vector<std::uint8_t> data;   ///< SoA: data[i] == symbols[i].data
  std::vector<std::uint64_t> ctl;   ///< SoA: control-flag bitmask words

  [[nodiscard]] sim::SimTime end() const noexcept {
    return start + period * static_cast<sim::Duration>(symbols.size());
  }
  /// Arrival (completion) time of symbols[i].
  [[nodiscard]] sim::SimTime arrival(std::size_t i) const noexcept {
    return start + period * static_cast<sim::Duration>(i + 1);
  }

  [[nodiscard]] bool has_view() const noexcept {
    return data.size() == symbols.size() &&
           ctl.size() == (symbols.size() + 63) / 64;
  }
  /// (Re)derives the SoA view from `symbols` — for hand-built bursts.
  void build_view();
};

/// Index of the first control symbol at or after `from`, or symbols.size()
/// when the rest of the burst is all data. Precondition: burst.has_view().
[[nodiscard]] std::size_t find_next_control(const Burst& burst,
                                            std::size_t from) noexcept;

/// Receiver interface for one channel direction.
class SymbolSink {
 public:
  virtual ~SymbolSink() = default;
  /// Precondition: burst.has_view() — Channel::deliver builds the view
  /// before every call, so sinks scan `data`/`ctl` without a fallback.
  virtual void on_burst(const Burst& burst) = 0;
};

/// One direction of a cable.
class Channel {
 public:
  /// `character_period` is the serialization time of one 9-bit character
  /// (12.5 ns at 80 MB/s); `propagation_delay` models cable length
  /// (~5 ns/m of copper).
  Channel(sim::Simulator& simulator, std::string name,
          sim::Duration character_period, sim::Duration propagation_delay);

  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void attach(SymbolSink& sink) noexcept { sink_ = &sink; }

  /// Queues `symbols` for serialization. Transmission begins when the
  /// transmitter is free (consecutive sends are serialized back to back).
  /// Returns the time at which the last symbol finishes transmitting.
  sim::SimTime transmit(std::span<const Symbol> symbols);
  sim::SimTime transmit(Symbol symbol) { return transmit({&symbol, 1}); }

  /// Earliest time a new transmission could start.
  [[nodiscard]] sim::SimTime transmitter_free_at() const noexcept {
    return tx_free_at_;
  }

  [[nodiscard]] sim::Duration character_period() const noexcept {
    return character_period_;
  }
  [[nodiscard]] sim::Duration propagation_delay() const noexcept {
    return propagation_delay_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Total symbols ever accepted for transmission.
  [[nodiscard]] std::uint64_t symbols_sent() const noexcept {
    return symbols_sent_;
  }

  /// Simulates pulling the cable: while disconnected, transmitted symbols
  /// vanish (and are counted). Reconnecting restores normal delivery.
  void set_connected(bool connected) noexcept { connected_ = connected; }
  [[nodiscard]] bool connected() const noexcept { return connected_; }
  [[nodiscard]] std::uint64_t symbols_lost_disconnected() const noexcept {
    return symbols_lost_;
  }

  /// Mutable channel state for fabric snapshots: the transmitter horizon,
  /// the counters, and the in-flight symbols. A pending delivery event
  /// carries only (sink, start, count); the symbols it will deliver wait in
  /// the channel's FIFO, so a snapshot of the simulator queue is only
  /// complete together with this state. The delivery scratch is excluded:
  /// it holds nothing between deliveries.
  struct State {
    sim::SimTime tx_free_at = 0;
    std::uint64_t symbols_sent = 0;
    std::uint64_t symbols_lost = 0;
    bool connected = true;
    std::vector<Symbol> in_flight;  ///< oldest first
  };

  [[nodiscard]] State capture_state() const {
    return State{tx_free_at_, symbols_sent_, symbols_lost_, connected_,
                 in_flight_.contents()};
  }
  void restore_state(const State& state) {
    tx_free_at_ = state.tx_free_at;
    symbols_sent_ = state.symbols_sent;
    symbols_lost_ = state.symbols_lost;
    connected_ = state.connected;
    in_flight_.assign(state.in_flight);
  }

 private:
  /// Fire-time half of transmit(): pops `count` symbols off the in-flight
  /// FIFO into the delivery scratch, builds the SoA view, and invokes the
  /// sink.
  void deliver(SymbolSink* sink, sim::SimTime start, std::size_t count);

  sim::Simulator& simulator_;
  std::string name_;
  sim::Duration character_period_;
  sim::Duration propagation_delay_;
  sim::SimTime tx_free_at_ = 0;
  std::uint64_t symbols_sent_ = 0;
  std::uint64_t symbols_lost_ = 0;
  bool connected_ = true;
  SymbolSink* sink_ = nullptr;
  /// Symbols of every scheduled, not yet fired delivery, in transmit order
  /// (which is delivery order: start times strictly increase and the
  /// propagation delay is constant).
  SymbolFifo in_flight_;
  /// The Burst handed to on_burst, reused by every delivery (delivery
  /// never nests: on_burst runs from the event loop and only schedules
  /// follow-on work). `symbols` is ASan-poisoned between deliveries.
  Burst scratch_;
};

/// A full-duplex cable: two channels with shared parameters. End A transmits
/// on a_to_b and receives from b_to_a; end B the reverse.
class DuplexLink {
 public:
  DuplexLink(sim::Simulator& simulator, std::string name,
             sim::Duration character_period, sim::Duration propagation_delay)
      : a_to_b_(simulator, name + ".a>b", character_period, propagation_delay),
        b_to_a_(simulator, name + ".b>a", character_period, propagation_delay) {}

  [[nodiscard]] Channel& a_to_b() noexcept { return a_to_b_; }
  [[nodiscard]] Channel& b_to_a() noexcept { return b_to_a_; }
  [[nodiscard]] const Channel& a_to_b() const noexcept { return a_to_b_; }
  [[nodiscard]] const Channel& b_to_a() const noexcept { return b_to_a_; }

 private:
  Channel a_to_b_;
  Channel b_to_a_;
};

}  // namespace hsfi::link

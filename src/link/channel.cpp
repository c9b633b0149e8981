#include "link/channel.hpp"

#include <utility>

namespace hsfi::link {

Channel::Channel(sim::Simulator& simulator, std::string name,
                 sim::Duration character_period,
                 sim::Duration propagation_delay)
    : simulator_(simulator),
      name_(std::move(name)),
      character_period_(character_period),
      propagation_delay_(propagation_delay) {
  scratch_.period = character_period_;
}

Channel::~Channel() {
  // The scratch's own deallocation must not run against poisoned storage.
  unpoison_capacity(scratch_.symbols);
}

sim::SimTime Channel::transmit(std::span<const Symbol> symbols) {
  if (symbols.empty()) return simulator_.now();
  const sim::SimTime start =
      tx_free_at_ > simulator_.now() ? tx_free_at_ : simulator_.now();
  const auto n = static_cast<sim::Duration>(symbols.size());
  tx_free_at_ = start + character_period_ * n;
  symbols_sent_ += symbols.size();

  if (!connected_) {
    symbols_lost_ += symbols.size();
    return tx_free_at_;
  }
  if (sink_ == nullptr) return tx_free_at_;

  // Deliver when the *first* symbol's trailing edge arrives; the sink uses
  // Burst::arrival() for per-symbol times within the burst. The payload
  // waits in the channel's FIFO and the event carries only its count, so
  // the capture is trivially copyable (snapshots clone it for free) and
  // steady-state traffic allocates nothing once the FIFO is warm.
  in_flight_.push(symbols);
  SymbolSink* sink = sink_;
  const sim::SimTime arrive = start + propagation_delay_;
  simulator_.schedule_at(arrive + character_period_,
                         [this, sink, arrive, count = symbols.size()] {
                           deliver(sink, arrive, count);
                         });
  return tx_free_at_;
}

void Channel::deliver(SymbolSink* sink, sim::SimTime start,
                      std::size_t count) {
  unpoison_capacity(scratch_.symbols);
  in_flight_.pop_into(count, scratch_.symbols);
  scratch_.start = start;
  sink->on_burst(scratch_);
  poison_capacity(scratch_.symbols);
}

}  // namespace hsfi::link

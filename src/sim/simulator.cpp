#include "sim/simulator.hpp"

namespace hsfi::sim {

bool Simulator::step(SimTime until) {
  if (queue_.empty()) return false;
  EventQueue::Fired fired;
  if (!queue_.pop_due(until, fired)) {
    now_ = until;
    return false;
  }
  now_ = fired.when;
  ++executed_;
  if (observer_) observer_(fired.when, executed_, fired.seq);
  fired.action();
  return true;
}

std::uint64_t Simulator::run_until(SimTime until) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && step(until)) ++n;
  return n;
}

}  // namespace hsfi::sim

// The simulation scheduler.
//
// A Simulator owns the event queue and the simulated clock. Entities capture
// a Simulator& and schedule callbacks; the main loop pops events in time
// order and advances the clock. Single-threaded by design (CP.1 does not
// apply inside the deterministic core; campaign-level parallelism, if any,
// runs whole simulations per thread).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace hsfi::sim {

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` to run `delay` picoseconds from now (delay >= 0;
  /// negative delays are clamped to zero to keep time monotone). `action`
  /// is any void() callable or an EventQueue::Action; it is forwarded to
  /// the queue and constructed once, in its event slot.
  template <typename F>
  EventId schedule_in(Duration delay, F&& action) {
    return queue_.schedule(now_ + (delay > 0 ? delay : 0),
                           std::forward<F>(action));
  }

  /// Schedules `action` at absolute time `when` (clamped to now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& action) {
    return queue_.schedule(when > now_ ? when : now_, std::forward<F>(action));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains or the clock passes `until`.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime until);

  /// Runs until the queue drains.
  std::uint64_t run() { return run_until(std::numeric_limits<SimTime>::max()); }

  /// Executes at most one event. Returns false if the queue was empty or the
  /// next event lies beyond `until` (clock is then advanced to `until`).
  bool step(SimTime until = std::numeric_limits<SimTime>::max());

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// Called before each event executes with (fire time, execution ordinal,
  /// schedule ordinal). Both ordinals are 1-based and independent of the
  /// EventId encoding, so a digest over the observed tuples is comparable
  /// across kernel implementations — the golden-trace tests rely on this
  /// to catch any change in event delivery order.
  using EventObserver =
      std::function<void(SimTime when, std::uint64_t exec_seq,
                         std::uint64_t schedule_seq)>;
  void set_event_observer(EventObserver observer) {
    observer_ = std::move(observer);
  }

  /// Kernel state at a point in time: the queue (with deep-copied actions),
  /// the clock, and the executed-event counter. The counter is part of the
  /// state because campaign records report executed-event *deltas*; a fork
  /// must see the same delta a cold start would.
  struct Snapshot {
    EventQueue::Snapshot queue;
    SimTime now = 0;
    std::uint64_t executed = 0;
  };

  /// Captures the kernel verbatim (see EventQueue::snapshot for the
  /// clonability requirement on pending actions).
  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{queue_.snapshot(), now_, executed_};
  }

  /// Rewinds the kernel to `snap`. Clears any pending stop() request; the
  /// event observer, if any, stays attached. Only meaningful on the same
  /// object graph the snapshot was captured from (pending actions embed
  /// entity pointers).
  void restore(const Snapshot& snap) {
    queue_.restore(snap.queue);
    now_ = snap.now;
    executed_ = snap.executed;
    stop_requested_ = false;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
  EventObserver observer_;
};

}  // namespace hsfi::sim

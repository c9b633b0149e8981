#include "core/device.hpp"

#include <optional>
#include <utility>
#include <vector>

namespace hsfi::core {

std::string_view to_string(Direction d) noexcept {
  switch (d) {
    case Direction::kLeftToRight: return "L>R";
    case Direction::kRightToLeft: return "R>L";
  }
  return "?";
}

/// One direction of the device: receives bursts on the ingress segment,
/// clocks them through the FIFO injector and (optionally) the CRC
/// repatcher, and retransmits on the egress segment. A drain timer plays
/// the role of the free-running FPGA clock so residual characters (packet
/// tails) leave the FIFO when the wire goes idle.
struct InjectorDevice::Pipeline final : link::SymbolSink {
  sim::Simulator* simulator = nullptr;
  sim::Duration character_period = 0;
  link::Channel* out = nullptr;

  FifoInjector fifo;
  CrcRepatcher repatch;
  CaptureBuffer capture;
  StreamStats stats;
  std::function<void(sim::SimTime)> on_injection;
  sim::EventId drain_event = sim::kInvalidEventId;
  /// Egress staging buffer, reused across bursts/drain ticks so the
  /// steady-state forwarding path allocates nothing per burst.
  std::vector<link::Symbol> scratch;
  /// clock_burst() output, reused across bursts for the same reason.
  FifoInjector::BatchResult batch;

  Pipeline(FifoInjector::Params fp, CaptureBuffer::Params cp)
      : fifo(fp), capture(cp) {}

  void cancel_drain() {
    if (drain_event != sim::kInvalidEventId) {
      simulator->cancel(drain_event);
      drain_event = sim::kInvalidEventId;
    }
  }

  void schedule_drain() {
    if (drain_event != sim::kInvalidEventId || !fifo.pending_payload()) return;
    drain_event = simulator->schedule_in(character_period, [this] {
      drain_event = sim::kInvalidEventId;
      // An idle tick never injects (the injector skips its even phase
      // without an input character); it only moves the FIFO along.
      const std::optional<link::Symbol> popped = fifo.clock(std::nullopt).out;
      scratch.clear();
      // IDLE characters (the free-running clock's filler) are never placed
      // on the egress channel: our channels model idle wire time
      // implicitly, so transmitting them would consume serialization
      // capacity that the real wire's idles do not (they ARE the idle
      // capacity).
      if (popped && !is_idle_character(*popped)) {
        repatch.feed_into(*popped, fifo.config().crc_repatch, scratch);
      }
      transmit(scratch);
      schedule_drain();
    });
  }

  void transmit(const std::vector<link::Symbol>& outs) {
    if (out != nullptr && !outs.empty()) out->transmit(outs);
  }

  void on_burst(const link::Burst& burst) override {
    cancel_drain();
    scratch.clear();
    scratch.reserve(burst.symbols.size());

    // Batched path: one clock_burst() call runs the whole odd/even pipeline,
    // then the taps replay against it. Per-character semantics (pinned by
    // the clock_burst property test and the golden digests):
    //   - capture/stats feed the *input* symbol stream, which the injector
    //     never mutates (corruption happens to the FIFO-resident copies);
    //   - a trigger at fire index f lands after the capture feed of
    //     symbol f, with the exact arrival timestamp burst.arrival(f);
    //   - the egress stream is the popped characters in order, minus the
    //     IDLE filler, through the CRC repatcher when it is active.
    fifo.clock_burst(burst.symbols, batch);
    stats.feed_burst(burst);

    const std::span<const link::Symbol> in(burst.symbols);
    if (batch.fires.empty()) {
      capture.feed_run(in);
    } else {
      std::size_t prev = 0;
      for (const std::uint32_t f : batch.fires) {
        capture.feed_run(in.subspan(prev, f + 1 - prev));
        const auto when = burst.arrival(f);
        capture.trigger(when);
        if (on_injection) on_injection(when);
        prev = f + 1;
      }
      capture.feed_run(in.subspan(prev));
    }

    if (!fifo.config().crc_repatch && !repatch.has_held()) {
      // Repatch stage is stateless-transparent: strip IDLE filler directly.
      for (const auto s : batch.out) {
        if (!is_idle_character(s)) scratch.push_back(s);
      }
    } else {
      for (const auto s : batch.out) {
        if (is_idle_character(s)) continue;
        repatch.feed_into(s, fifo.config().crc_repatch, scratch);
      }
    }

    transmit(scratch);
    schedule_drain();
  }
};

InjectorDevice::InjectorDevice(sim::Simulator& simulator, std::string name,
                               Config config)
    : simulator_(simulator), name_(std::move(name)), config_(config) {
  for (auto& pipe : pipes_) {
    pipe = std::make_unique<Pipeline>(config_.fifo, config_.capture);
    pipe->simulator = &simulator_;
    pipe->character_period = config_.character_period;
  }
}

InjectorDevice::~InjectorDevice() = default;

void InjectorDevice::attach_left(link::Channel& rx, link::Channel& tx) {
  rx.attach(*pipes_[index(Direction::kLeftToRight)]);
  pipes_[index(Direction::kRightToLeft)]->out = &tx;
}

void InjectorDevice::attach_right(link::Channel& rx, link::Channel& tx) {
  rx.attach(*pipes_[index(Direction::kRightToLeft)]);
  pipes_[index(Direction::kLeftToRight)]->out = &tx;
}

void InjectorDevice::apply(Direction d, const InjectorConfig& config) {
  auto& pipe = *pipes_[index(d)];
  pipe.fifo.config() = config;
  pipe.fifo.rearm();
  if (trace_ && trace_->enabled(sim::LogLevel::kInfo)) {
    trace_->add(simulator_.now(), sim::LogLevel::kInfo, name_,
                std::string(to_string(d)) + " configured: " +
                    describe(config));
  }
}

const InjectorConfig& InjectorDevice::config(Direction d) const {
  return pipes_[index(d)]->fifo.config();
}

void InjectorDevice::inject_now(Direction d) {
  pipes_[index(d)]->fifo.inject_now();
}

void InjectorDevice::rearm(Direction d) { pipes_[index(d)]->fifo.rearm(); }

const FifoInjector::Stats& InjectorDevice::fifo_stats(Direction d) const {
  return pipes_[index(d)]->fifo.stats();
}

const CaptureBuffer& InjectorDevice::capture(Direction d) const {
  return pipes_[index(d)]->capture;
}

const StreamStats& InjectorDevice::stream_stats(Direction d) const {
  return pipes_[index(d)]->stats;
}

std::uint64_t InjectorDevice::frames_crc_patched(Direction d) const {
  return pipes_[index(d)]->repatch.frames_patched();
}

void InjectorDevice::set_injection_hook(InjectionHook hook) {
  for (const auto d : {Direction::kLeftToRight, Direction::kRightToLeft}) {
    auto& pipe = *pipes_[index(d)];
    if (!hook) {
      pipe.on_injection = nullptr;
    } else {
      pipe.on_injection = [d, hook](sim::SimTime when) { hook(d, when); };
    }
  }
}

void InjectorDevice::clear_stats() {
  for (auto& pipe : pipes_) {
    pipe->fifo.clear_stats();
    pipe->stats.clear();
    pipe->capture.clear();
  }
}

InjectorDevice::State InjectorDevice::capture_state() const {
  State state;
  for (std::size_t i = 0; i < pipes_.size(); ++i) {
    const Pipeline& pipe = *pipes_[i];
    state.pipes[i].fifo = pipe.fifo;
    state.pipes[i].repatch = pipe.repatch;
    state.pipes[i].capture = pipe.capture;
    state.pipes[i].stats = pipe.stats.capture_state();
    state.pipes[i].drain_event = pipe.drain_event;
  }
  return state;
}

void InjectorDevice::restore_state(const State& state) {
  for (std::size_t i = 0; i < pipes_.size(); ++i) {
    Pipeline& pipe = *pipes_[i];
    pipe.fifo = state.pipes[i].fifo;
    pipe.repatch = state.pipes[i].repatch;
    pipe.capture = state.pipes[i].capture;
    pipe.stats.restore_state(state.pipes[i].stats);
    pipe.drain_event = state.pipes[i].drain_event;
  }
}

}  // namespace hsfi::core

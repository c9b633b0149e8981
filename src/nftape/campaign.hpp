// NFTAPE-style campaign automation.
//
// "the system-level impact of faults can be evaluated in an automated
// fashion employing the proposed fault injection hardware and an external
// management and control framework, such as one provided by the network
// fault-tolerance and performance evaluator (NFTAPE)" (paper §1).
//
// A CampaignSpec bundles the fault (injector configuration per direction),
// the workload ("a simple UDP packet generation program" on every node),
// and the measurement window. "To ensure the repeatability of the
// experiments, each campaign began with the network in a known good state"
// — the runner resets the testbed before every run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include <memory>

#include "analysis/analyzer.hpp"
#include "analysis/manifestation.hpp"
#include "analysis/metrics.hpp"
#include "core/injector_config.hpp"
#include "nftape/medium.hpp"
#include "nftape/testbed.hpp"
#include "scenario/scenario.hpp"
#include "sim/time.hpp"

namespace hsfi::nftape {

class Fabric;

struct WorkloadSpec {
  /// Per-sender datagram interval ("the network was operating at full
  /// capacity and every node was running a message-sending program").
  sim::Duration udp_interval = sim::microseconds(500);
  std::size_t payload_size = 64;
  std::uint8_t payload_fill = 0x5A;
  bool all_to_all = true;  ///< false: only node 0 <-> node 1
  std::uint16_t port = 9;
  /// Burstiness (see host::UdpFlood::Config): bursts collide at switch
  /// outputs and engage STOP/GO flow control, the paper's "network
  /// operating at full capacity".
  std::size_t burst_size = 1;
  double jitter = 0.0;
};

struct CampaignSpec {
  std::string name;
  /// Which fabric realization executes this campaign. The spec is otherwise
  /// medium-neutral: the same faults/workload/window fields drive either
  /// medium ("failure analysis can be performed simultaneously over both of
  /// these networks", abstract).
  Medium medium = Medium::kMyrinet;
  /// Fault programmed into the node->switch direction (left-to-right).
  std::optional<core::InjectorConfig> fault_to_switch;
  /// Fault programmed into the switch->node direction (right-to-left).
  std::optional<core::InjectorConfig> fault_from_switch;
  /// Program the device over the simulated RS-232 link (as NFTAPE did)
  /// instead of poking the model directly.
  bool program_via_serial = true;
  sim::Duration warmup = sim::milliseconds(20);
  sim::Duration duration = sim::milliseconds(1000);
  sim::Duration drain = sim::milliseconds(20);
  /// Settle after programming the fault, covering the serial exchange (and
  /// anything else in flight) before the workload starts. Part of the spec
  /// so watchdog budgets and snapshot capture see the same value the run
  /// actually spends — both guards count against the RunControl budget.
  sim::Duration program_guard = sim::milliseconds(30);
  /// Settle after disarming, before the medium's recovery settle.
  sim::Duration disarm_guard = sim::milliseconds(30);
  WorkloadSpec workload;
  /// Protocol-level misbehavior program, armed at the measurement-window
  /// start (after warmup) and disarmed at window end: stale/forged mapping
  /// advertisements, lying flow control, truncated-but-CRC-valid frames,
  /// duplicated/reordered FC-2 sequences. Step kinds must match `medium`.
  /// Each step firing is recorded as one injection, so the manifestation
  /// breakdown reconciles against injector firings + scenario firings.
  std::optional<scenario::ScenarioSpec> scenario;
  /// Seed for everything stochastic in this run: the workload generators and
  /// the per-host RNG streams reset by `Testbed::reset_to_known_good`. With
  /// an explicit seed a single-threaded sequence of N runs on one testbed is
  /// equal to N independent runs — the property the parallel orchestrator
  /// relies on for worker-count-independent results. 0 = inherit the
  /// testbed's construction seed.
  std::uint64_t seed = 0;
};

/// Thrown by CampaignRunner::run when a RunControl cancels the run.
class RunCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-run knobs a closed-loop controller tunes between rounds — the
/// paper's adaptivity: the RS-232 command plane reprograms the injector
/// (and the workload driver re-paces the senders) while the campaign is
/// running, based on what the monitors observed. Each knob maps one scalar
/// onto one field of the spec; `apply_knob` quantizes as needed.
enum class Knob : std::uint8_t {
  /// LFSR random-trigger thinning on every installed fault direction:
  /// mask = (1 << bits) - 1, so the trigger fires on about one compare in
  /// 2^bits. MORE bits = RARER firings (lower intensity).
  kSeuLfsrBits,
  /// Workload datagram interval in microseconds (sub-microsecond values
  /// round to nanoseconds). SMALLER = more traffic (higher intensity).
  kUdpIntervalUs,
  /// Workload burst size (datagrams per wakeup); larger bursts collide at
  /// the switch outputs and engage STOP/GO flow control.
  kBurstSize,
};

[[nodiscard]] std::string_view to_string(Knob k) noexcept;
[[nodiscard]] std::optional<Knob> parse_knob(std::string_view s);

/// The intense end of the knob's axis: true when larger values are more
/// intense (kBurstSize), false when smaller ones are (kUdpIntervalUs,
/// kSeuLfsrBits).
[[nodiscard]] constexpr bool higher_is_more_intense(Knob k) noexcept {
  return k == Knob::kBurstSize;
}

/// Applies `value` to the knob's field of `spec`. kSeuLfsrBits rewrites
/// the lfsr_mask of every fault direction currently installed in the spec,
/// so install faults first, then apply the knob.
void apply_knob(CampaignSpec& spec, Knob knob, double value);

/// Cooperative watchdog hook. The runner splits its settle() calls into
/// poll_interval chunks and calls should_cancel between chunks with the
/// simulated time elapsed so far in this run; a true return aborts the run
/// with RunCancelled. Cancellation is cooperative on simulated-time chunk
/// boundaries — the watchdog owner decides policy (wall-clock deadline,
/// simulated-time cap, external kill switch).
struct RunControl {
  sim::Duration poll_interval = sim::milliseconds(10);
  std::function<bool(sim::Duration elapsed_sim)> should_cancel;
};

struct CampaignResult {
  std::string name;
  Medium medium = Medium::kMyrinet;  ///< which fabric produced this result
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  sim::Duration window = 0;

  // Failure breakdown over the window.
  std::uint64_t link_crc_errors = 0;     ///< dropped by NIC CRC-8
  std::uint64_t marker_errors = 0;
  std::uint64_t ring_overflows = 0;
  std::uint64_t udp_checksum_drops = 0;
  std::uint64_t misaddressed_drops = 0;
  std::uint64_t unroutable_drops = 0;
  std::uint64_t unknown_type_drops = 0;
  std::uint64_t nic_tx_drops = 0;
  std::uint64_t slack_overflow = 0;      ///< switch symbol loss
  std::uint64_t long_timeouts = 0;
  std::uint64_t injections = 0;          ///< injector fire count
  /// Medium-specific counters (zero on Myrinet): BB-credit exhaustion
  /// stalls and FC-2 sequence aborts/rejections over the window — the two
  /// failure modes credit-based flow control and sequence reassembly add
  /// on top of the shared taxonomy.
  std::uint64_t fc_credit_stalls = 0;
  std::uint64_t fc_sequences_aborted = 0;
  /// Scenario-driver step firings inside the window (already folded into
  /// `injections`; zero when the spec carried no scenario).
  std::uint64_t scenario_steps_fired = 0;
  /// Kernel events executed over the whole run (reset through recovery).
  /// Deterministic in simulated time; the bench harness divides it by wall
  /// time for events/sec.
  std::uint64_t events_executed = 0;
  /// Link symbols transmitted over the whole run, every segment and both
  /// directions. Invariant under batching (the same traffic flows whether
  /// symbols are scheduled one event each or one event per burst), so it
  /// pairs with events_executed to show what a kernel-events drop means.
  /// Bench-output-only: not part of the campaign JSONL record.
  std::uint64_t symbols_sent = 0;

  /// How each firing manifested (classes sum to `injections` exactly).
  analysis::ManifestationBreakdown manifestations;
  /// Unclaimed downstream effects (cascades past the first per firing).
  std::uint64_t secondary_effects = 0;
  /// Firing -> first-observed-effect delay over the window.
  analysis::Histogram manifestation_latency;

  /// Deliveries beyond what was sent in the window: duplicated or replayed
  /// datagrams (e.g. a corrupted route looping a packet back). loss_rate()
  /// clamps at zero in that case, so duplication must be reported on its
  /// own — a zero loss figure with nonzero duplicates is not a clean run.
  [[nodiscard]] std::uint64_t duplicates() const {
    return messages_received > messages_sent
               ? messages_received - messages_sent
               : 0;
  }

  [[nodiscard]] double loss_rate() const {
    if (messages_sent == 0) return 0.0;
    const auto lost = messages_sent > messages_received
                          ? messages_sent - messages_received
                          : 0;
    return static_cast<double>(lost) / static_cast<double>(messages_sent);
  }
  [[nodiscard]] double messages_per_second() const {
    const double secs = sim::to_seconds(window);
    return secs > 0 ? static_cast<double>(messages_received) / secs : 0.0;
  }
};

class CampaignRunner {
 public:
  /// Runs campaigns on any fabric realization (Myrinet or FC). The runner
  /// itself is medium-blind: reset, fault programming, workload window,
  /// snapshot deltas, and manifestation analysis all go through the Fabric
  /// interface.
  explicit CampaignRunner(Fabric& fabric);

  /// Convenience for the historical call sites: wraps `bed` in a
  /// MyrinetFabric view (no behavioral difference from the pre-Fabric
  /// runner — the event stream is identical).
  explicit CampaignRunner(Testbed& bed);

  ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Resets to the known good state, programs the fault, applies the
  /// workload for the measurement window, and collects the result.
  /// `control`, when given, is polled between simulation chunks and may
  /// cancel the run (throws RunCancelled). `elapsed_before` is the
  /// simulated time the caller already spent on this run before entering
  /// the campaign (e.g. the orchestrator's startup settle): it seeds the
  /// accumulator handed to should_cancel, so one watchdog budget covers
  /// the whole run instead of resetting at the phase boundary.
  CampaignResult run(const CampaignSpec& spec,
                     const RunControl* control = nullptr,
                     sim::Duration elapsed_before = 0);

  /// Cumulative across runs on this runner: one counter per manifestation
  /// class ("manifest.<class>"), "secondary_effects", and the
  /// "manifestation_latency" histogram. Deterministic (simulated time
  /// only), so it is byte-stable across hosts and worker counts.
  [[nodiscard]] const analysis::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  void clear_metrics() { metrics_.clear(); }

 private:
  void settle_checked(sim::Duration span, const RunControl* control,
                      sim::Duration* elapsed);

  std::unique_ptr<Fabric> owned_;  ///< set by the Testbed& constructor
  Fabric& fabric_;
  analysis::MetricsRegistry metrics_;
};

}  // namespace hsfi::nftape

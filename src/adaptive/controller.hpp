// The closed-loop experiment controller: strategy -> batch -> worker pool
// -> per-cell accumulation -> strategy, round after round.
//
// This is the NFTAPE "external management and control framework" role with
// the human taken out of the loop: instead of pre-expanding a static grid,
// the controller asks a Strategy for the next batch of runs, executes it
// on the orchestrator's worker pool (a batch boundary is a synchronization
// point), folds the manifestation breakdowns into per-cell accumulators,
// and feeds them back. Determinism contract:
//
//  * per-run seeds derive from sim::derive_seed over a stable
//    (round, cell, replicate) key — never from arrival order;
//  * records are emitted in request order after each round barrier, so the
//    JSONL stream is byte-identical across worker counts and invocations;
//  * strategies are pure functions of their observation history, and
//    observations are deterministic, so the whole campaign is replayable
//    from (spec, base seed) alone.
//
// The loop is also medium-agnostic: the base CampaignSpec's medium rides
// through expand_round into every RunSpec copy, the executor realizes it
// via nftape::make_fabric, and strategies only ever see manifestation
// breakdowns and knob values — so bisection and coverage campaigns run
// unmodified over Myrinet or Fibre Channel.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adaptive/strategy.hpp"
#include "analysis/accumulator.hpp"
#include "monitor/jsonl_reader.hpp"
#include "nftape/campaign.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace hsfi::monitor {
class StreamingFeed;
}  // namespace hsfi::monitor

namespace hsfi::adaptive {

/// Stable seed key for one adaptive run. Chained splitmix64 avalanches so
/// nearby (round, cell, replicate) tuples land on unrelated keys; the key
/// space is disjoint in all three coordinates, so re-running a cell in a
/// later round always draws fresh, reproducible seeds.
[[nodiscard]] constexpr std::uint64_t run_key(std::uint32_t round,
                                              std::uint32_t fault,
                                              std::uint32_t direction,
                                              std::uint32_t replicate) noexcept {
  std::uint64_t k = sim::splitmix64(round);
  k = sim::splitmix64(
      k ^ ((static_cast<std::uint64_t>(fault) << 32) | direction));
  k = sim::splitmix64(k ^ replicate);
  return k;
}

/// The per-run seed: derive_seed(base, run_key(...)).
[[nodiscard]] constexpr std::uint64_t derive_run_seed(
    std::uint64_t base_seed, std::uint32_t round, std::uint32_t fault,
    std::uint32_t direction, std::uint32_t replicate) noexcept {
  return sim::derive_seed(base_seed,
                          run_key(round, fault, direction, replicate));
}

/// The adaptive campaign plane: like orchestrator::SweepSpec, but the
/// intensity axis is a tunable knob the strategy steers instead of a
/// pre-enumerated list.
struct AdaptiveSpec {
  std::string name = "adaptive";
  /// Template for every run (fault, workload, and knob fields overwritten
  /// per request).
  nftape::CampaignSpec base;
  nftape::TestbedConfig testbed;
  /// 0 = auto, same formula as SweepSpec.
  sim::Duration startup_settle = 0;

  std::vector<orchestrator::FaultPoint> faults;
  std::vector<orchestrator::FaultDirection> directions = {
      orchestrator::FaultDirection::kBoth};
  /// What RunRequest::knob_value means (see nftape::apply_knob).
  nftape::Knob knob = nftape::Knob::kUdpIntervalUs;

  std::uint64_t base_seed = 1;
  /// Hard round cap — the loop stops even if the strategy wants more.
  std::uint32_t max_rounds = 16;
  /// Hard run cap across all rounds (0 = none). A round that would exceed
  /// it is not started (partial rounds would break batch determinism).
  std::size_t max_total_runs = 0;
  /// Prepended verbatim to every run name (multi-target campaign files use
  /// "<target>:"; the colon keeps cell_key's fault/direction grouping).
  std::string name_prefix;
  /// Added to every RunSpec::index, so records of a multi-target campaign
  /// carry campaign-global run numbers.
  std::size_t index_base = 0;
};

/// Per-round digest for progress display.
struct RoundSummary {
  std::uint32_t round = 0;
  std::size_t runs = 0;        ///< runs in this round
  std::size_t failed = 0;      ///< non-ok outcomes in this round
  std::size_t total_runs = 0;  ///< cumulative including this round
};

struct ControllerConfig {
  /// Worker pool settings (workers, watchdog, executor override). The
  /// controller installs nothing in on_record / on_progress here — records
  /// are delivered deterministically via ControllerConfig::on_record.
  orchestrator::RunnerConfig runner;
  /// Called after each round barrier with every record of the round, in
  /// request order — the deterministic streaming JSONL hook.
  std::function<void(const orchestrator::RunRecord&)> on_record;
  std::function<void(const RoundSummary&)> on_round;

  /// Optional streaming analysis plane (not owned; must outlive run()).
  /// Every finished run of a round is published to the feed the moment it
  /// completes — in completion order, mid-batch — and the strategy's
  /// observe_streaming() is consulted on the same record. With
  /// early_cancel off this observes without steering: the batch path is
  /// untouched and the emitted JSONL stays byte-identical to an unfed
  /// campaign (deterministic mode).
  monitor::StreamingFeed* feed = nullptr;
  /// Live mode: a true observe_streaming() verdict cancels the rest of
  /// the cell's round — still-queued runs come back RunOutcome::kSkipped.
  /// Which replicates get skipped depends on completion order, so records
  /// (and downstream strategy state fed by fewer ok runs) are no longer
  /// byte-stable across worker counts. Requires `feed`.
  bool early_cancel = false;
};

/// Everything a finished adaptive campaign produced.
struct CampaignOutcome {
  /// Records EXECUTED by this invocation, in emission order (round-major,
  /// request order within). Rounds restored from a checkpoint replay are
  /// folded into `cells` and the strategy but not re-materialized here —
  /// their records already live in the durable JSONL.
  std::vector<orchestrator::RunRecord> records;
  std::uint32_t rounds = 0;
  std::size_t replayed = 0;  ///< runs restored from replay, not re-executed
  /// Cumulative per-cell totals, keyed "<fault>/<direction>" (replayed
  /// rounds included).
  analysis::CellAccumulator cells;
  /// True when the strategy declared convergence (returned an empty
  /// round) rather than hitting max_rounds / max_total_runs.
  bool converged = false;
};

/// Previously executed runs fed back on resume, one vector per round: the
/// records monitor::parse_record recovers from the durable JSONL. A
/// Strategy's Observation needs their outcome, counters and breakdown; the
/// full run name (including any name_prefix) detects drift.
using Replay = std::vector<std::vector<monitor::ParsedRecord>>;

/// Thrown when a replay does not match what the strategy re-derives —
/// the spec changed since the checkpoint was written, or the JSONL was
/// edited. Resuming anyway would splice two different campaigns.
class ReplayMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Controller {
 public:
  explicit Controller(AdaptiveSpec spec, ControllerConfig config = {});

  /// Runs the closed loop to convergence (or the caps) and returns the
  /// outcome. The strategy is owned by the caller and can be inspected
  /// afterwards (e.g. BisectionStrategy::thresholds()).
  CampaignOutcome run(Strategy& strategy);

  /// Resume: round `r` < replay.size() is NOT executed — the strategy's
  /// requests are re-derived, verified name-by-name against replay[r]
  /// (ReplayMismatch on any drift), and fed to observe() as if the round
  /// had just run; execution picks up at round replay.size(). Because
  /// strategies are pure functions of their observation history, the
  /// continuation is byte-identical to the uninterrupted campaign.
  CampaignOutcome run(Strategy& strategy, const Replay& replay);

  /// All fault × direction cells of the spec's plane, in the order
  /// strategies index them (fault-major).
  [[nodiscard]] std::vector<Cell> cells() const;

  /// Cell key used in reports and the accumulator: "<fault>/<direction>".
  [[nodiscard]] std::string cell_name(const Cell& cell) const;

  /// Expands one round's requests into fully-specified RunSpecs (used by
  /// run() and by --dry-run to print a round-0 batch without executing).
  /// `first_index` is the global index of the round's first run.
  [[nodiscard]] std::vector<orchestrator::RunSpec> expand_round(
      const std::vector<RunRequest>& requests, std::uint32_t round,
      std::size_t first_index, std::string_view strategy_name) const;

 private:
  AdaptiveSpec spec_;
  ControllerConfig config_;
  sim::Duration startup_settle_ = 0;  ///< resolved (never 0)
};

}  // namespace hsfi::adaptive

// One campaign executor. Every campaign run_sweep starts goes through
// execute_campaign: a --spec file as loaded, and the grid flags lowered
// to a one-target CampaignFile. The file decides the mode — a static
// grid (whole or one seed-keyed shard, optionally durable and resumable)
// or a closed-loop strategy per target (durable per round, resumable by
// replaying the recorded rounds through the Controller) — and
// ExecuteOptions carries only how to execute it: workers, snapshots,
// where the records go, and the streaming consumers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/controller.hpp"
#include "adaptive/strategy.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/runner.hpp"
#include "sim/time.hpp"

namespace hsfi::adaptive {

/// The strategy `spec` names, over `cells`. `replicates` sizes a coverage
/// round's per-cell batch and the fixed grid's replicates. Bisection takes
/// the intense end of its axis from the knob. `udp_interval` and
/// `burst_size` are the target's workload: the fixed grid's one knob value
/// is the field its knob sets (udp-us in microseconds, or burst). Throws
/// std::invalid_argument on an unknown strategy name, and for fixed with
/// seu-bits, which has no single base value.
[[nodiscard]] std::unique_ptr<Strategy> make_strategy(
    const orchestrator::StrategySpec& spec, std::vector<Cell> cells,
    std::size_t replicates, sim::Duration udp_interval,
    std::size_t burst_size = 4);

/// The controller plane of one target of a strategy-steered campaign.
/// Run names carry the "<target>:" prefix (none for an unnamed target)
/// and run indices start at `index_base`.
[[nodiscard]] AdaptiveSpec adaptive_spec(
    const orchestrator::CampaignFile& file,
    const orchestrator::CampaignTarget& target, std::size_t index_base);

/// How to execute a campaign. Each field is a run_sweep flag, except the
/// two progress callbacks, which forward to RunnerConfig::on_progress and
/// ControllerConfig::on_round.
struct ExecuteOptions {
  std::size_t workers = 0;  ///< --workers (0 = hardware concurrency)
  bool snapshots = false;   ///< --snapshots on
  bool timing = false;      ///< --timing: wall_ms in the JSONL
  /// --out: the JSONL data file, appended durably with a checkpoint
  /// sidecar beside it (orchestrator/shard.hpp). Empty = records are only
  /// returned.
  std::string out;
  std::uint32_t shard = 0;  ///< --shard K/N (static campaigns only)
  std::uint32_t of = 1;
  /// --batch: runs per durable batch (0 = the file's checkpoint_batch).
  std::size_t batch = 0;
  bool resume = false;  ///< --resume: continue after the durable prefix
  /// --crash-after-batches: called with the data file and the number of
  /// durable batches (static) or rounds (strategy) so far, each time one
  /// more becomes durable. run_sweep tears the file and exits from here;
  /// in-process tests throw.
  std::function<void(const std::string& data_file, std::uint64_t durable)>
      after_durable;
  /// --early-cancel (strategy campaigns; requires `feed`).
  bool early_cancel = false;
  /// --monitor: every finished record is published here the moment its
  /// run completes (not owned; must outlive the call).
  monitor::StreamingFeed* feed = nullptr;
  /// --monitor-interval-ms: further streaming consumers (not owned).
  std::vector<orchestrator::RecordSink*> sinks;
  /// Progress lines: per run for static campaigns, per round (with the
  /// target's name) for strategy campaigns.
  std::function<void(const orchestrator::Progress&)> on_progress;
  std::function<void(const std::string& target, const RoundSummary&)>
      on_round;
};

/// One bisected cell's threshold ("<target>:<fault>/<direction>").
struct CellReport {
  std::string cell;
  CellThreshold threshold;
};

struct ExecuteResult {
  /// Records executed by this call: index order (static) or emission
  /// order (strategy). Runs restored from a checkpoint live only in the
  /// data file.
  std::vector<orchestrator::RunRecord> records;
  std::uint64_t restored = 0;  ///< runs restored or replayed, not re-run
  std::uint32_t rounds = 0;    ///< strategy: rounds, summed over targets
  bool converged = true;       ///< strategy: every target converged
  std::vector<CellReport> thresholds;  ///< bisect: target-major
};

/// Executes `file`. Throws orchestrator::ShardError (I/O, a checkpoint of
/// another spec or layout, a shard layout on a strategy campaign) and
/// ReplayMismatch (a data file that does not match its checkpoint or the
/// strategy's re-derivation).
ExecuteResult execute_campaign(const orchestrator::CampaignFile& file,
                               const ExecuteOptions& opts);

}  // namespace hsfi::adaptive

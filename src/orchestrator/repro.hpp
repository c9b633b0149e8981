// Replayable reproducer traces: the minimizer's output artifact.
//
// When `run_sweep --emit-repro` finishes minimizing a misbehavior scenario,
// it writes one JSON document holding everything needed to re-execute the
// minimal run byte-deterministically on any machine: medium, seed, window
// and workload shape, the (minimized) step sequence, the manifestation
// class it must reproduce, and the exact JSONL record the emitting run
// produced. `run_sweep --replay trace.json` rebuilds the identical RunSpec,
// executes it, and compares its JSONL line against the stored one — a
// byte-level equality check, not a statistical one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "nftape/campaign.hpp"
#include "nftape/medium.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "scenario/scenario.hpp"

namespace hsfi::orchestrator {

/// The signature the minimizer preserves: the highest-count non-masked
/// manifestation class of a run, named in severity order (ties keep the
/// less severe class, matching all_manifestations() order). Empty when
/// nothing manifested — the "did not reproduce" signal.
[[nodiscard]] std::string dominant_class(const nftape::CampaignResult& result);

struct ReproTrace {
  std::string name;  ///< run name, also the replayed campaign's name
  nftape::Medium medium = nftape::Medium::kMyrinet;
  std::uint64_t seed = 0;
  /// Fault from standard_fault_axis programmed alongside the scenario;
  /// empty = fault-free baseline.
  std::string fault;
  FaultDirection direction = FaultDirection::kBoth;
  sim::Duration warmup = sim::milliseconds(10);
  sim::Duration duration = sim::milliseconds(60);
  sim::Duration drain = sim::milliseconds(10);
  sim::Duration udp_interval = sim::microseconds(12);
  std::size_t payload_size = 256;
  std::size_t burst_size = 4;
  double jitter = 0.5;
  scenario::ScenarioSpec scenario;
  /// dominant_class of the emitting run — what a replay must reproduce.
  std::string expect;
  /// The emitting run's full JSONL record; a replay must match it byte for
  /// byte (the sorted-JSONL determinism contract, applied to one run).
  std::string jsonl;
};

/// The trace of `record`, the one run of `sweep` (one fault, direction
/// and replicate): medium, seed, fault, window, workload shape and the
/// armed scenario come from the sweep, the name and the stored JSONL line
/// from the record, and `expect` is the class a replay must reproduce.
[[nodiscard]] ReproTrace make_repro_trace(const SweepSpec& sweep,
                                          const RunRecord& record,
                                          std::string expect);

/// The one-run sweep that re-executes `trace`: every field the trace
/// carries overrides `base`, which supplies the rest (testbed, workload
/// defaults). Throws CampaignFileError when the trace's fault is not on
/// its medium's standard_fault_axis.
[[nodiscard]] SweepSpec replay_sweep(const ReproTrace& trace, SweepSpec base);

/// Serializes the trace as one JSON document (trailing newline included).
[[nodiscard]] std::string to_json(const ReproTrace& trace);

/// Strict parse (same house rules as campaign files: unknown keys are
/// errors with their full JSON path). Throws CampaignFileError.
[[nodiscard]] ReproTrace parse_repro_trace(std::string_view text);

/// Reads and parses `path`. Throws CampaignFileError.
[[nodiscard]] ReproTrace load_repro_trace(const std::string& path);

}  // namespace hsfi::orchestrator

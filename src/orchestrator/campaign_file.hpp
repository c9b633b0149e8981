// Declarative campaign files: one JSON document describing a whole
// distributed campaign — targets (media under test), per-target workload
// and window overrides, fault subsets, intensity grids, and an optional
// closed-loop strategy block — loaded by `run_sweep --spec`.
//
// This is the FINJ/NFTAPE campaign-config idea (see SNIPPETS: FIJ's
// config.json with global defaults overridden per target) applied to the
// simulated testbed: the file plus its base seed fully determine the
// expanded run set, so N sharded processes that load the same spec agree
// byte-for-byte on every run they partition between themselves.
//
// Parsing goes through orchestrator::parse_json, like every JSON the repo
// reads, and is louder than the record tailer: monitor::parse_record skips
// unknown fields because the emitter may be newer, while a campaign file is
// operator input — an unknown or mistyped key means the operator's intent
// would be silently ignored, so it throws CampaignFileError naming the key
// instead. The typed field readers and the scenario-block parser below are
// shared with the repro-trace reader (repro.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nftape/campaign.hpp"
#include "nftape/medium.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/sweep.hpp"
#include "scenario/scenario.hpp"
#include "sim/time.hpp"

namespace hsfi::orchestrator {

class CampaignFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Typed readers over one parsed value. `ctx` is the value's JSON path
/// ("targets[2].replicates"); a value of the wrong type or range throws
/// CampaignFileError naming it. The document readers prefix the message
/// with the document kind at their boundary.
[[nodiscard]] std::string field_str(const JsonValue& v, const std::string& ctx);
[[nodiscard]] double field_num(const JsonValue& v, const std::string& ctx);
[[nodiscard]] std::uint64_t field_u64(const JsonValue& v,
                                      const std::string& ctx);
[[nodiscard]] bool field_bool(const JsonValue& v, const std::string& ctx);
/// Non-negative milliseconds / positive microseconds, fractions allowed,
/// on the Duration grid; a value the grid cannot hold is refused.
[[nodiscard]] sim::Duration field_ms(const JsonValue& v,
                                     const std::string& ctx);
[[nodiscard]] sim::Duration field_us(const JsonValue& v,
                                     const std::string& ctx);

/// A "scenario" block: {"name": ..., "steps": [{"kind", "at_ms", "node",
/// "count"}, ...]} with kind known, at_ms and count positive, and no other
/// keys. Without "steps", `registry` resolves the name against the built-in
/// programs (scenario::find_scenario); otherwise the block is refused.
/// Medium compatibility is the caller's to check.
[[nodiscard]] scenario::ScenarioSpec parse_scenario(const JsonValue& v,
                                                    const std::string& ctx,
                                                    bool registry);

/// The named fault axis for a medium — the axes run_sweep has always
/// offered, promoted into the library so campaign files (and any other
/// front end) resolve fault names against the same catalogue.
[[nodiscard]] std::vector<FaultPoint> standard_fault_axis(
    nftape::Medium medium);

/// 64-bit FNV-1a of `text` — the campaign file's identity. Checkpoint
/// sidecars record it so a resume against an edited spec is refused
/// instead of splicing records from two different expansions.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// The optional "strategy" block: which closed-loop strategy steers the
/// campaign and its knobs. Data only — the orchestrator does not depend on
/// src/adaptive; adaptive::make_strategy interprets it.
struct StrategySpec {
  std::string name;  ///< "fixed" | "bisect" | "coverage"
  /// The intensity axis bisect and coverage steer; fixed runs at the
  /// target's own value of it, so fixed cannot take seu-bits.
  nftape::Knob knob = nftape::Knob::kUdpIntervalUs;
  /// The intensity axis endpoints (same defaults as the CLI: full-capacity
  /// 12 us pace out to a 396 us trickle).
  double axis_lo = 12.0;
  double axis_hi = 396.0;
  double tolerance_us = 24.0;   ///< bisect bracket width
  std::uint32_t max_rounds = 12;
  std::uint64_t target_count = 5;  ///< coverage observations per class
};

/// One target: a named medium-under-test with its fully resolved sweep
/// (file defaults overlaid with the target's own overrides, fault names
/// resolved against standard_fault_axis). `sweep.base_seed` is already
/// derive_seed(file seed, target ordinal), so targets draw disjoint seed
/// streams no matter how the file is sliced across processes.
struct CampaignTarget {
  /// No '/' or ':' (prefixed onto run names). parse_campaign_file rejects
  /// an empty name; only run_sweep's grid flags lower to an unnamed
  /// target, whose run names carry no prefix.
  std::string name;
  SweepSpec sweep;
};

struct CampaignFile {
  std::string name;
  std::uint64_t base_seed = 1;
  /// Runs per durable checkpoint batch in sharded execution.
  std::size_t checkpoint_batch = 8;
  std::vector<CampaignTarget> targets;
  std::optional<StrategySpec> strategy;
  std::uint64_t digest = 0;  ///< fnv1a64 of the source text
};

/// The grid campaign run_sweep's flags describe (everything --spec
/// replaces): the medium's fault axis, filtered, × {from-switch, both} ×
/// replicates at full-capacity load, optionally steered by a strategy.
struct GridCampaign {
  nftape::Medium medium = nftape::Medium::kMyrinet;
  std::uint64_t seed = 1;
  std::size_t replicates = 2;  ///< 0 runs one
  long duration_ms = 60;
  std::string faults;    ///< comma-separated filter; empty = the whole axis
  std::string scenario;  ///< registry name armed on every run; empty = none
  StrategySpec strategy;  ///< empty name = the static grid
};

/// The testbed and workload every grid campaign runs with (and a
/// --replay rebuilds its run on): fast receive paths, a 10 ms warmup and
/// drain, and 12 us bursts of four 256-byte jittered datagrams.
void apply_grid_defaults(SweepSpec& sweep);

/// Lowers `grid` to a campaign file with one unnamed target: run names
/// carry no "<target>:" prefix and seeds derive from `grid.seed` itself,
/// so its records are the ones the flags produced before they were
/// lowered. The whole grid is one checkpoint batch, and `identity` (the
/// command line) is the file's digest source. Throws CampaignFileError
/// when the filter selects no fault, or on an unknown or wrong-medium
/// scenario.
[[nodiscard]] CampaignFile grid_campaign(const GridCampaign& grid,
                                         std::string_view identity);

/// Parses a campaign-spec document. Schema (all *_ms / *_us fields accept
/// fractions; unknown keys anywhere are errors):
///
///   {
///     "name": "nightly",            // required
///     "seed": 1,
///     "checkpoint_batch": 8,
///     "strategy": {"name": "bisect", "knob": "udp-us",
///                  "axis_lo": 12, "axis_hi": 396, "tolerance_us": 24,
///                  "max_rounds": 12, "target_count": 5},
///     "defaults": { <target fields> },
///     "targets": [{"name": "myri", <target fields>}, ...]  // required
///   }
///
/// Target fields (each optional; target overrides defaults overrides the
/// built-in CLI sweep values): "medium" ("myrinet"|"fc"), "faults"
/// (names from standard_fault_axis; absent = the full axis), "directions"
/// (["to-switch"|"from-switch"|"both"]), "replicates", "duration_ms",
/// "warmup_ms", "drain_ms", "startup_settle_ms" (absent/0 = auto),
/// "map_period_ms", "udp_interval_us", "burst_size", "payload_size",
/// "jitter", "program_via_serial", "grid" — a list of named intensity
/// points {"name", "udp_interval_us", "burst_size", "payload_size"}
/// defaulting to the target's resolved workload — and "scenario": a
/// protocol-misbehavior program, either a registry name
/// ({"name": "flow-liar"}) or explicit steps ({"name": "...", "steps":
/// [{"kind": "rrdy-flood", "at_ms": 1.5, "node": 0, "count": 24}, ...]});
/// step kinds must match the target's medium.
///
/// Unknown keys report their full JSON path ("targets[2].strategy.knob"),
/// so a typo deep in an overlay is findable without a diff.
[[nodiscard]] CampaignFile parse_campaign_file(std::string_view text);

/// Reads and parses `path`. Throws CampaignFileError (file missing or any
/// parse/validation failure).
[[nodiscard]] CampaignFile load_campaign_file(const std::string& path);

/// The globally indexed run set: each target expanded in file order
/// (orchestrator::expand), indices shifted to be campaign-global, run
/// names prefixed "<target>:" (the colon keeps cell_key's
/// fault/direction grouping intact: "myri:gap-go/both"; an unnamed target
/// adds no prefix). A pure function
/// of the file, so every shard reconstructs the identical set.
[[nodiscard]] std::vector<RunSpec> expand_campaign(const CampaignFile& file);

}  // namespace hsfi::orchestrator

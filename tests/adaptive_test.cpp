// Tests for the closed-loop adaptive campaign controller: Wilson interval
// statistics, bisection convergence and run-efficiency, coverage-driven
// allocation and stopping, controller determinism (JSONL byte-identical
// across worker counts and invocations), and the JSONL control-character
// escaping contract the strategy field relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/controller.hpp"
#include "adaptive/stats.hpp"
#include "adaptive/strategy.hpp"
#include "myrinet/control.hpp"
#include "nftape/faults.hpp"
#include "orchestrator/jsonl.hpp"
#include "orchestrator/runner.hpp"

namespace hsfi::adaptive {
namespace {

using analysis::Manifestation;
using myrinet::ControlSymbol;
using sim::microseconds;
using sim::milliseconds;

// ---------------------------------------------------------------------------
// Wilson interval statistics (src/adaptive/stats.hpp)

TEST(WilsonTest, ZeroTrialsIsVacuous) {
  const auto w = wilson_interval(0, 0);
  EXPECT_EQ(w.lo, 0.0);
  EXPECT_EQ(w.hi, 1.0);
  EXPECT_EQ(w.rate, 0.0);
}

TEST(WilsonTest, ZeroTrialsNeverProducesNaN) {
  // Regression: n == 0 must take the documented full-width [0, 1] branch,
  // not divide by n. Every field has to be finite for the stopping rules
  // (NaN comparisons are all false, which would wedge a cell open forever).
  const auto w = wilson_interval(0, 0);
  EXPECT_TRUE(std::isfinite(w.lo));
  EXPECT_TRUE(std::isfinite(w.hi));
  EXPECT_TRUE(std::isfinite(w.rate));
  EXPECT_TRUE(std::isfinite(wilson_upper(0, 0)));
  EXPECT_TRUE(std::isfinite(wilson_lower(0, 0)));
}

TEST(WilsonTest, SuccessesAboveTrialsIsRejected) {
  // Regression: p > 1 drives the score discriminant negative and the whole
  // interval to NaN; reject instead of returning poison.
  EXPECT_THROW((void)wilson_interval(3, 2), std::invalid_argument);
  EXPECT_THROW((void)wilson_interval(1, 0), std::invalid_argument);
  EXPECT_THROW((void)wilson_upper(11, 10), std::invalid_argument);
  EXPECT_THROW((void)wilson_lower(11, 10), std::invalid_argument);
}

TEST(WilsonTest, NeverZeroWidthAtBoundaries) {
  // The property the coverage stopping rule depends on: 0/n must leave a
  // nonzero upper bound (the class might still exist) and n/n a lower
  // bound below 1. The Wald interval fails both.
  for (const std::uint64_t n : {1u, 10u, 100u, 10000u}) {
    const auto zero = wilson_interval(0, n);
    EXPECT_EQ(zero.lo, 0.0);
    EXPECT_GT(zero.hi, 0.0) << "0/" << n;
    const auto all = wilson_interval(n, n);
    EXPECT_LT(all.lo, 1.0) << n << "/" << n;
    EXPECT_NEAR(all.hi, 1.0, 1e-12);
  }
}

TEST(WilsonTest, ContainsPointEstimateAndShrinksWithN) {
  double last_width = 1.0;
  for (const std::uint64_t n : {4u, 16u, 64u, 256u, 4096u}) {
    const auto w = wilson_interval(n / 4, n);
    EXPECT_LE(w.lo, w.rate);
    EXPECT_GE(w.hi, w.rate);
    EXPECT_NEAR(w.rate, 0.25, 1e-12);
    const double width = w.hi - w.lo;
    EXPECT_LT(width, last_width) << "interval must tighten as n grows";
    last_width = width;
  }
}

TEST(WilsonTest, KnownValue) {
  // 10/100 at z=1.96: the textbook Wilson interval is about [5.5%, 17.4%].
  const auto w = wilson_interval(10, 100);
  EXPECT_NEAR(w.lo, 0.0552, 5e-4);
  EXPECT_NEAR(w.hi, 0.1744, 5e-4);
}

TEST(WilsonTest, FormatIsByteStable) {
  EXPECT_EQ(format_rate_ci(1, 8), "1/8 = 12.5% [2.2%, 47.1%]");
  EXPECT_EQ(format_rate_ci(0, 0), "0/0 = -");
  const std::string zero = format_rate_ci(0, 50);
  EXPECT_EQ(zero.rfind("0/50 = 0.0% [0.0%, ", 0), 0u) << zero;
}

// ---------------------------------------------------------------------------
// Synthetic observation plumbing shared by the strategy tests.

Observation observe_run(const RunRequest& req, std::uint32_t round,
                        bool manifests, std::uint64_t injections = 40) {
  Observation o;
  o.request = req;
  o.round = round;
  o.ok = true;
  o.injections = injections;
  if (manifests) {
    o.manifestations[Manifestation::kCrcDropped] = injections / 2;
    o.manifestations[Manifestation::kMasked] = injections - injections / 2;
  } else {
    o.manifestations[Manifestation::kMasked] = injections;
  }
  return o;
}

/// Drives `strategy` with a per-cell threshold plant: a request manifests
/// iff pred(cell_index, knob_value). Returns total runs issued.
template <typename Pred>
std::size_t drive(Strategy& strategy, Pred pred, std::uint32_t max_rounds) {
  std::size_t total = 0;
  for (std::uint32_t round = 0; round < max_rounds; ++round) {
    const auto requests = strategy.next_round(round);
    if (requests.empty()) return total;
    total += requests.size();
    std::vector<Observation> obs;
    obs.reserve(requests.size());
    for (const auto& req : requests) {
      obs.push_back(observe_run(req, round, pred(req.cell, req.knob_value)));
    }
    strategy.observe(obs);
  }
  return total;
}

std::vector<Cell> grid_cells(std::uint32_t faults, std::uint32_t directions) {
  std::vector<Cell> cells;
  for (std::uint32_t f = 0; f < faults; ++f) {
    for (std::uint32_t d = 0; d < directions; ++d) cells.push_back({f, d});
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Fixed grid strategy

TEST(FixedGridTest, OneRoundGridThenConverged) {
  FixedGridConfig config;
  config.knob_values = {10.0, 20.0};
  config.replicates = 3;
  FixedGridStrategy strategy(grid_cells(2, 2), config);

  const auto round0 = strategy.next_round(0);
  ASSERT_EQ(round0.size(), 4u * 2u * 3u);
  // Cell-major, knob-major, replicate-minor: replicate ordinals (and so
  // seeds) are positional within each (cell, knob) group.
  EXPECT_EQ(round0[0].cell, (Cell{0, 0}));
  EXPECT_EQ(round0[0].knob_value, 10.0);
  EXPECT_EQ(round0[2].knob_value, 10.0);
  EXPECT_EQ(round0[3].knob_value, 20.0);
  EXPECT_EQ(round0[6].cell, (Cell{0, 1}));

  strategy.observe({});
  EXPECT_TRUE(strategy.next_round(1).empty());
}

// ---------------------------------------------------------------------------
// Bisection strategy

TEST(BisectionTest, LocatesThresholdWithinTolerance) {
  BisectionConfig config;
  config.lo = 0.0;
  config.hi = 256.0;
  config.tolerance = 2.0;
  config.higher_is_more_intense = true;
  const auto cells = grid_cells(2, 2);
  BisectionStrategy strategy(cells, config);

  // Planted per-cell thresholds: manifests iff knob >= threshold.
  const double thresholds[] = {17.5, 100.1, 201.7, 255.0};
  drive(
      strategy,
      [&](const Cell& cell, double knob) {
        const std::size_t i = cell.fault * 2 + cell.direction;
        return knob >= thresholds[i];
      },
      64);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& t = strategy.thresholds()[i];
    ASSERT_TRUE(t.found) << "cell " << i;
    EXPECT_TRUE(t.converged) << "cell " << i;
    // The bracket straddles the planted threshold and is within tolerance.
    EXPECT_LE(t.masked_at, thresholds[i]);
    EXPECT_GE(t.manifested_at, thresholds[i]);
    EXPECT_LE(t.manifested_at - t.masked_at, strategy.tolerance());
    EXPECT_NEAR(t.estimate(), thresholds[i], strategy.tolerance());
  }
}

TEST(BisectionTest, InvertedAxisLocatesThreshold) {
  // kUdpIntervalUs-style axis: smaller knob = more intense. Manifests iff
  // knob <= 130.9.
  BisectionConfig config;
  config.lo = 12.0;
  config.hi = 396.0;
  config.tolerance = 6.0;
  config.higher_is_more_intense = false;
  BisectionStrategy strategy({{0, 0}}, config);

  drive(strategy, [](const Cell&, double knob) { return knob <= 130.9; }, 64);

  const auto& t = strategy.thresholds()[0];
  ASSERT_TRUE(t.found);
  EXPECT_TRUE(t.converged);
  EXPECT_LE(t.manifested_at, 130.9);  // the manifesting side is the low side
  EXPECT_GE(t.masked_at, 130.9);
  EXPECT_NEAR(t.estimate(), 130.9, strategy.tolerance());
}

TEST(BisectionTest, UsesAtMostHalfTheGridRuns) {
  // The ISSUE acceptance criterion: threshold located with <= 50% of the
  // runs an exhaustive grid at the same resolution would take.
  BisectionConfig config;
  config.lo = 0.0;
  config.hi = 384.0;
  config.tolerance = 6.0;
  const auto cells = grid_cells(2, 2);
  BisectionStrategy strategy(cells, config);

  const double thresholds[] = {57.3, 130.9, 211.4, 333.7};
  const std::size_t runs = drive(
      strategy,
      [&](const Cell& cell, double knob) {
        return knob >= thresholds[cell.fault * 2 + cell.direction];
      },
      64);

  const std::size_t grid =
      strategy.grid_equivalent_runs_per_cell() * cells.size();
  EXPECT_LE(runs * 2, grid) << runs << " bisection runs vs " << grid
                            << " grid runs";
  for (const auto& t : strategy.thresholds()) {
    EXPECT_TRUE(t.found && t.converged);
  }
}

TEST(BisectionTest, AllMaskedCellReportsNotFound) {
  BisectionConfig config;
  config.lo = 0.0;
  config.hi = 64.0;
  config.tolerance = 1.0;
  BisectionStrategy strategy({{0, 0}}, config);

  drive(strategy, [](const Cell&, double) { return false; }, 64);

  const auto& t = strategy.thresholds()[0];
  EXPECT_FALSE(t.found);
  EXPECT_TRUE(std::isnan(t.manifested_at));
  // Two endpoint probes were enough to call it.
  EXPECT_EQ(t.runs, 2u);
}

TEST(BisectionTest, AllManifestedCellConvergesImmediately) {
  BisectionConfig config;
  config.lo = 0.0;
  config.hi = 64.0;
  config.tolerance = 1.0;
  BisectionStrategy strategy({{0, 0}}, config);

  drive(strategy, [](const Cell&, double) { return true; }, 64);

  const auto& t = strategy.thresholds()[0];
  EXPECT_TRUE(t.found);
  EXPECT_TRUE(std::isnan(t.masked_at));
  EXPECT_EQ(t.runs, 2u);
}

TEST(BisectionTest, MinManifestedRejectsFlukes) {
  // One manifested firing out of 40 must not count as "manifests" when
  // min_manifested is 3: the cell looks all-masked.
  BisectionConfig config;
  config.lo = 0.0;
  config.hi = 64.0;
  config.tolerance = 1.0;
  config.min_manifested = 3;
  BisectionStrategy strategy({{0, 0}}, config);

  for (std::uint32_t round = 0; round < 64; ++round) {
    const auto requests = strategy.next_round(round);
    if (requests.empty()) break;
    std::vector<Observation> obs;
    for (const auto& req : requests) {
      Observation o = observe_run(req, round, false);
      o.manifestations[Manifestation::kMasked] -= 1;
      o.manifestations[Manifestation::kMisrouted] += 1;  // a single fluke
      obs.push_back(o);
    }
    strategy.observe(obs);
  }
  EXPECT_FALSE(strategy.thresholds()[0].found);
}

// ---------------------------------------------------------------------------
// Coverage strategy

TEST(CoverageTest, AllocatesOnlyToOpenCells) {
  CoverageConfig config;
  config.knob_value = 12.0;
  config.target_count = 3;
  config.batch_replicates = 2;
  const auto cells = grid_cells(2, 1);
  CoverageStrategy strategy(cells, config);

  const auto round0 = strategy.next_round(0);
  ASSERT_EQ(round0.size(), 2u * 2u);  // both cells open
  for (const auto& req : round0) EXPECT_EQ(req.knob_value, 12.0);

  // Cell 0 reaches the target on every class; cell 1 stays short.
  std::vector<Observation> obs;
  for (const auto& req : round0) {
    Observation o;
    o.request = req;
    o.ok = true;
    o.injections = 40;
    if (req.cell.fault == 0) {
      for (const auto m : analysis::all_manifestations()) {
        o.manifestations[m] = 5;
      }
    } else {
      o.manifestations[Manifestation::kMasked] = 40;
    }
    obs.push_back(o);
  }
  strategy.observe(obs);

  EXPECT_FALSE(strategy.cell_open(0));
  EXPECT_TRUE(strategy.cell_open(1));
  const auto round1 = strategy.next_round(1);
  ASSERT_EQ(round1.size(), 2u);  // only cell 1
  for (const auto& req : round1) EXPECT_EQ(req.cell, (Cell{1, 0}));
}

TEST(CoverageTest, WilsonStoppingDeclaresRareClassHopeless) {
  CoverageConfig config;
  config.knob_value = 1.0;
  config.target_count = 5;
  config.batch_replicates = 1;
  config.min_injections = 256;
  config.hopeless_rate = 0.01;
  CoverageStrategy strategy({{0, 0}}, config);

  // Rounds of 512 injections, everything lands in crc_dropped (satisfied
  // quickly) — misrouted stays at zero until the Wilson upper bound on
  // 0/512 drops under 1% and the cell closes instead of looping forever.
  std::uint32_t rounds = 0;
  for (std::uint32_t round = 0; round < 32; ++round) {
    const auto requests = strategy.next_round(round);
    if (requests.empty()) break;
    ++rounds;
    std::vector<Observation> obs;
    for (const auto& req : requests) {
      Observation o;
      o.request = req;
      o.round = round;
      o.ok = true;
      o.injections = 512;
      o.manifestations[Manifestation::kCrcDropped] = 512;
      obs.push_back(o);
    }
    strategy.observe(obs);
  }

  EXPECT_FALSE(strategy.cell_open(0));
  EXPECT_LT(rounds, 32u) << "cell must close, not exhaust the round cap";
  EXPECT_EQ(strategy.coverage(0, Manifestation::kCrcDropped),
            ClassCoverage::kSatisfied);
  EXPECT_EQ(strategy.coverage(0, Manifestation::kMisrouted),
            ClassCoverage::kHopeless);
  // 0/512 Wilson upper bound is indeed below the 1% hopeless rate.
  EXPECT_LT(wilson_upper(0, strategy.cell_injections(0)), config.hopeless_rate);
  // The masked class is never chased: no observations needed.
  EXPECT_EQ(strategy.coverage(0, Manifestation::kMasked),
            ClassCoverage::kSatisfied);
}

TEST(CoverageTest, FailedRunsContributeNothing) {
  CoverageConfig config;
  config.target_count = 1;
  config.batch_replicates = 1;
  CoverageStrategy strategy({{0, 0}}, config);

  const auto round0 = strategy.next_round(0);
  ASSERT_EQ(round0.size(), 1u);
  Observation o;
  o.request = round0[0];
  o.ok = false;  // timed out: counters must not be folded in
  o.injections = 500;
  o.manifestations[Manifestation::kCrcDropped] = 500;
  strategy.observe({o});
  EXPECT_EQ(strategy.cell_injections(0), 0u);
  EXPECT_TRUE(strategy.cell_open(0));
}

// ---------------------------------------------------------------------------
// Controller determinism: byte-identical JSONL across worker counts and
// repeated invocations, for a bisection and a coverage campaign.

AdaptiveSpec controller_spec() {
  AdaptiveSpec spec;
  spec.name = "determinism";
  spec.faults = {
      {"gap-go",
       nftape::control_symbol_corruption(ControlSymbol::kGap,
                                         ControlSymbol::kGo),
       {}},
      {"seu", nftape::random_bit_flip_seu(0x00FF), {}},
  };
  spec.directions = {orchestrator::FaultDirection::kFromSwitch,
                     orchestrator::FaultDirection::kBoth};
  spec.base_seed = 7;
  spec.max_rounds = 24;
  return spec;
}

/// Deterministic synthetic executor: manifestation iff the interval knob
/// is at or below a per-seed threshold — a pure function of the RunSpec,
/// so records depend only on (round, cell, replicate) keys, never on
/// which worker ran them.
nftape::CampaignResult synthetic_executor(const orchestrator::RunSpec& run,
                                          const nftape::RunControl&) {
  nftape::CampaignResult r;
  r.name = run.campaign.name;
  r.messages_sent = 200 + run.seed % 17;
  r.messages_received = r.messages_sent;
  r.injections = 30 + run.seed % 11;
  r.events_executed = 1000;
  const double interval_us =
      sim::to_microseconds(run.campaign.workload.udp_interval);
  const double threshold = 100.0 + static_cast<double>(run.seed % 64);
  if (interval_us <= threshold) {
    r.manifestations[analysis::Manifestation::kCrcDropped] = r.injections - 5;
    r.manifestations[analysis::Manifestation::kMisrouted] =
        run.seed % 3 == 0 ? 2 : 0;
    r.manifestations[analysis::Manifestation::kMasked] =
        r.injections - r.manifestations.total();
  } else {
    r.manifestations[analysis::Manifestation::kMasked] = r.injections;
  }
  return r;
}

std::string run_campaign_jsonl(const std::string& which, std::size_t workers) {
  AdaptiveSpec spec = controller_spec();
  ControllerConfig config;
  config.runner.workers = workers;
  config.runner.executor = synthetic_executor;
  Controller controller(spec, std::move(config));

  std::string jsonl;
  CampaignOutcome outcome;
  if (which == "bisect") {
    BisectionConfig bc;
    bc.lo = 12.0;
    bc.hi = 396.0;
    bc.tolerance = 12.0;
    bc.higher_is_more_intense = false;
    BisectionStrategy strategy(controller.cells(), bc);
    outcome = controller.run(strategy);
  } else {
    CoverageConfig cc;
    cc.knob_value = 50.0;
    cc.target_count = 4;
    cc.batch_replicates = 2;
    cc.min_injections = 128;
    CoverageStrategy strategy(controller.cells(), cc);
    outcome = controller.run(strategy);
  }
  EXPECT_FALSE(outcome.records.empty());
  for (const auto& rec : outcome.records) {
    jsonl += orchestrator::to_jsonl(rec);
    jsonl += '\n';
  }
  return jsonl;
}

TEST(ControllerDeterminismTest, BisectionJsonlIdenticalAcrossWorkerCounts) {
  const std::string w1 = run_campaign_jsonl("bisect", 1);
  const std::string w8 = run_campaign_jsonl("bisect", 8);
  EXPECT_EQ(w1, w8);
  // Repeated invocation, same config: byte-identical too.
  EXPECT_EQ(w1, run_campaign_jsonl("bisect", 1));
  // Round/strategy provenance is present.
  EXPECT_NE(w1.find("\"strategy\":\"bisect\""), std::string::npos);
  EXPECT_NE(w1.find("\"round\":1"), std::string::npos);
}

TEST(ControllerDeterminismTest, CoverageJsonlIdenticalAcrossWorkerCounts) {
  const std::string w1 = run_campaign_jsonl("coverage", 1);
  const std::string w8 = run_campaign_jsonl("coverage", 8);
  EXPECT_EQ(w1, w8);
  EXPECT_EQ(w1, run_campaign_jsonl("coverage", 1));
  EXPECT_NE(w1.find("\"strategy\":\"coverage\""), std::string::npos);
}

TEST(ControllerTest, SeedsDependOnRoundCellReplicateOnly) {
  AdaptiveSpec spec = controller_spec();
  Controller controller(spec, {});
  // Two probes of the same cell at different knob values in one round get
  // the same replicate ordinal — a matched pair differing only in the knob.
  const std::vector<RunRequest> requests = {{{0, 0}, 396.0}, {{0, 0}, 12.0},
                                            {{0, 1}, 396.0}, {{0, 1}, 12.0}};
  const auto runs = controller.expand_round(requests, 3, 10, "bisect");
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].seed, runs[1].seed);
  EXPECT_NE(runs[0].seed, runs[2].seed);
  EXPECT_EQ(runs[0].seed, derive_run_seed(spec.base_seed, 3, 0, 0, 0));
  EXPECT_EQ(runs[0].index, 10u);
  EXPECT_EQ(runs[3].index, 13u);
  for (const auto& run : runs) {
    EXPECT_EQ(run.round, 3u);
    EXPECT_EQ(run.strategy, "bisect");
  }
  // Same cell, same knob, twice: now the replicate ordinal advances.
  const auto reps = controller.expand_round({{{0, 0}, 12.0}, {{0, 0}, 12.0}},
                                            3, 0, "bisect");
  EXPECT_NE(reps[0].seed, reps[1].seed);
  EXPECT_EQ(reps[1].seed, derive_run_seed(spec.base_seed, 3, 0, 0, 1));
}

TEST(ControllerTest, MaxTotalRunsSkipsWholeRounds) {
  AdaptiveSpec spec = controller_spec();
  spec.max_total_runs = 5;  // round 0 needs 8 runs (4 cells x 2 endpoints)
  ControllerConfig config;
  config.runner.workers = 2;
  config.runner.executor = synthetic_executor;
  Controller controller(spec, std::move(config));
  BisectionConfig bc;
  bc.lo = 12.0;
  bc.hi = 396.0;
  bc.higher_is_more_intense = false;
  BisectionStrategy strategy(controller.cells(), bc);
  const auto outcome = controller.run(strategy);
  // Partial rounds would break the batch-determinism contract, so nothing
  // ran at all.
  EXPECT_TRUE(outcome.records.empty());
  EXPECT_FALSE(outcome.converged);
}

// ---------------------------------------------------------------------------
// Checkpoint replay: a resumed campaign re-derives the replayed rounds,
// verifies them, and continues byte-identically — or refuses on drift.

Replay replay_prefix(const std::vector<orchestrator::RunRecord>& records,
                     std::uint32_t rounds) {
  Replay replay(rounds);
  for (const auto& rec : records) {
    if (rec.round >= rounds) continue;
    monitor::ParsedRecord r;
    r.name = rec.name;
    r.outcome = orchestrator::to_string(rec.outcome);
    r.injections = rec.result.injections;
    r.duplicates = rec.result.duplicates();
    r.manifestations = rec.result.manifestations;
    replay[rec.round].push_back(std::move(r));
  }
  return replay;
}

CampaignOutcome run_bisect(const Replay& replay, std::size_t workers = 4) {
  ControllerConfig config;
  config.runner.workers = workers;
  config.runner.executor = synthetic_executor;
  Controller controller(controller_spec(), std::move(config));
  BisectionConfig bc;
  bc.lo = 12.0;
  bc.hi = 396.0;
  bc.tolerance = 12.0;
  bc.higher_is_more_intense = false;
  BisectionStrategy strategy(controller.cells(), bc);
  return controller.run(strategy, replay);
}

TEST(ControllerReplayTest, ResumeContinuesByteIdentical) {
  const auto full = run_bisect({});
  ASSERT_GT(full.rounds, 2u);
  ASSERT_FALSE(full.records.empty());

  for (const std::uint32_t cut : {1u, 2u}) {
    const auto replay = replay_prefix(full.records, cut);
    std::size_t replayed = 0;
    for (const auto& round : replay) replayed += round.size();

    const auto resumed = run_bisect(replay, /*workers=*/1);
    EXPECT_EQ(resumed.replayed, replayed);
    EXPECT_EQ(resumed.rounds, full.rounds);
    EXPECT_EQ(resumed.converged, full.converged);
    // The executed tail is exactly the uninterrupted campaign's records
    // past the cut, byte for byte.
    ASSERT_EQ(resumed.records.size(), full.records.size() - replayed);
    for (std::size_t i = 0; i < resumed.records.size(); ++i) {
      EXPECT_EQ(orchestrator::to_jsonl(resumed.records[i]),
                orchestrator::to_jsonl(full.records[replayed + i]));
    }
    // Replayed rounds still reach the accumulator.
    ASSERT_EQ(resumed.cells.cells().size(), full.cells.cells().size());
    for (const auto& [key, stats] : full.cells.cells()) {
      const auto* got = resumed.cells.find(key);
      ASSERT_NE(got, nullptr) << key;
      EXPECT_EQ(got->runs, stats.runs) << key;
      EXPECT_EQ(got->injections, stats.injections) << key;
      EXPECT_EQ(got->manifestations.total(), stats.manifestations.total())
          << key;
    }
  }
}

TEST(ControllerReplayTest, FullReplayExecutesNothing) {
  const auto full = run_bisect({});
  const auto resumed = run_bisect(replay_prefix(full.records, full.rounds));
  EXPECT_TRUE(resumed.records.empty());
  EXPECT_EQ(resumed.replayed, full.records.size());
  EXPECT_EQ(resumed.rounds, full.rounds);
  EXPECT_TRUE(resumed.converged);
}

TEST(ControllerReplayTest, DriftIsRefused) {
  const auto full = run_bisect({});

  // A record whose name does not match what the strategy re-derives: the
  // spec changed since the checkpoint — splicing would mix two campaigns.
  auto renamed = replay_prefix(full.records, 1);
  renamed[0][0].name = "someone-else/both/i42.0/r0";
  EXPECT_THROW((void)run_bisect(renamed), ReplayMismatch);

  // A round with the wrong record count.
  auto short_round = replay_prefix(full.records, 1);
  short_round[0].pop_back();
  EXPECT_THROW((void)run_bisect(short_round), ReplayMismatch);

  // More durable rounds than the strategy re-derives (it converges first).
  auto overlong = replay_prefix(full.records, full.rounds);
  overlong.push_back(overlong.back());
  EXPECT_THROW((void)run_bisect(overlong), ReplayMismatch);
}

// ---------------------------------------------------------------------------
// nftape knobs: the scalar dials the strategies steer.

TEST(KnobTest, NamesRoundTrip) {
  for (const auto k : {nftape::Knob::kSeuLfsrBits, nftape::Knob::kUdpIntervalUs,
                       nftape::Knob::kBurstSize}) {
    EXPECT_EQ(nftape::parse_knob(nftape::to_string(k)), k);
  }
  EXPECT_FALSE(nftape::parse_knob("bogus").has_value());
}

TEST(KnobTest, ApplyKnobQuantizes) {
  nftape::CampaignSpec spec;
  nftape::apply_knob(spec, nftape::Knob::kUdpIntervalUs, 130.5);
  EXPECT_EQ(spec.workload.udp_interval, sim::nanoseconds(130500));
  nftape::apply_knob(spec, nftape::Knob::kUdpIntervalUs, 0.0);
  EXPECT_EQ(spec.workload.udp_interval, sim::nanoseconds(1)) << "never zero";
  nftape::apply_knob(spec, nftape::Knob::kBurstSize, 3.7);
  EXPECT_EQ(spec.workload.burst_size, 4u);

  // kSeuLfsrBits rewrites the mask of every installed fault direction.
  spec.fault_to_switch = nftape::random_bit_flip_seu(0xFFFF);
  spec.fault_from_switch = nftape::random_bit_flip_seu(0xFFFF);
  nftape::apply_knob(spec, nftape::Knob::kSeuLfsrBits, 8.0);
  EXPECT_EQ(spec.fault_to_switch->lfsr_mask, 0x00FFu);
  EXPECT_EQ(spec.fault_from_switch->lfsr_mask, 0x00FFu);
  nftape::apply_knob(spec, nftape::Knob::kSeuLfsrBits, 0.0);
  EXPECT_EQ(spec.fault_to_switch->lfsr_mask, 0x0000u);
}

// ---------------------------------------------------------------------------
// JSONL escaping: the strategy field is caller-controlled, so every control
// character must leave the emitter as \u00XX, never raw.

TEST(JsonEscapeTest, AllControlCharactersEscaped) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string raw(1, static_cast<char>(c));
    const std::string escaped = orchestrator::json_escape(raw);
    // No raw control byte survives.
    for (const char ch : escaped) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u)
          << "raw control byte 0x" << std::hex << c << " leaked";
    }
    // The common shorthands or the \u00XX form, never empty.
    EXPECT_GE(escaped.size(), 2u) << "control 0x" << std::hex << c;
    EXPECT_EQ(escaped[0], '\\') << "control 0x" << std::hex << c;
    if (c == '\n') {
      EXPECT_EQ(escaped, "\\n");
    }
    if (c == '\t') {
      EXPECT_EQ(escaped, "\\t");
    }
    if (c == '\r') {
      EXPECT_EQ(escaped, "\\r");
    }
  }
  EXPECT_EQ(orchestrator::json_escape("\x01"), "\\u0001");
  EXPECT_EQ(orchestrator::json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(orchestrator::json_escape("\""), "\\\"");
  EXPECT_EQ(orchestrator::json_escape("\\"), "\\\\");
  EXPECT_EQ(orchestrator::json_escape("plain"), "plain");
}

TEST(JsonEscapeTest, RecordWithControlCharsInStrategyStaysOneLine) {
  orchestrator::RunRecord rec;
  rec.index = 0;
  rec.name = "cell/with\nnewline";
  rec.strategy = "bi\tsect\x01";
  rec.round = 2;
  rec.outcome = orchestrator::RunOutcome::kOk;
  const std::string line = orchestrator::to_jsonl(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\t'), std::string::npos);
  EXPECT_EQ(line.find('\x01'), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\\u0001"), std::string::npos);
  EXPECT_NE(line.find("\"round\":2"), std::string::npos);
}

}  // namespace
}  // namespace hsfi::adaptive

// Snapshot-equivalence tests for the orchestrator's snapshot/fork
// execution path (RunnerConfig::snapshots).
//
// The contract under test: forking runs from a settled-fabric snapshot is
// an execution detail, never an observable one. A mini-campaign executed
// with snapshots on must emit JSONL byte-identical to the same campaign
// cold-started — per run, across worker counts (1 vs 8, exercising the
// per-worker cache with both a shared and a partitioned cell stream), on
// both media, and through all three adaptive strategies (whose rounds
// reuse one Runner's caches across run_batch calls).
//
// On top of the self-consistency checks, the snapshotted Myrinet
// mini-campaign's JSONL is pinned as a committed digest
// (tests/golden/mini_campaign_snapshot.digest) so a snapshot-path change
// that perturbs results fails against a fixed reference even if it
// perturbs the cold path identically. Regenerate with HSFI_UPDATE_GOLDEN=1
// only when a result change is deliberate.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/controller.hpp"
#include "adaptive/execute.hpp"
#include "adaptive/strategy.hpp"
#include "fc/frame.hpp"
#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/faults.hpp"
#include "nftape/medium.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"

namespace {

using namespace hsfi;
using myrinet::ControlSymbol;

/// FNV-1a, 64-bit, over the JSONL bytes (same helper shape as the other
/// golden files so the digests are comparable artifacts).
struct Fnv1a {
  std::uint64_t state = 1469598103934665603ULL;

  void byte(std::uint8_t v) {
    state ^= v;
    state *= 1099511628211ULL;
  }

  [[nodiscard]] std::string hex() const {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)state);
    return buffer;
  }
};

/// The Myrinet probe: 2 faults x 2 directions x 2 replicates = 8 runs,
/// same shape as golden_trace_test's mini campaign. All eight runs share
/// one (topology, workload, medium) cell, so with snapshots on a worker
/// settles once and forks the rest.
orchestrator::SweepSpec mini_sweep() {
  orchestrator::SweepSpec sweep;
  sweep.name = "snap-mini";
  sweep.base_seed = 7;
  sweep.replicates = 2;
  sweep.startup_settle = sim::milliseconds(150);
  sweep.directions = {orchestrator::FaultDirection::kFromSwitch,
                      orchestrator::FaultDirection::kBoth};
  sweep.faults.push_back(
      {"go-stop", nftape::control_symbol_corruption(ControlSymbol::kGo,
                                                    ControlSymbol::kStop), ""});
  sweep.faults.push_back({"seu-00FF", nftape::random_bit_flip_seu(0x00FF), ""});

  sweep.testbed.map_period = sim::milliseconds(100);
  sweep.testbed.nic_config.rx_processing_time = sim::microseconds(1);
  sweep.testbed.send_stack_time = sim::microseconds(1);
  sweep.base.warmup = sim::milliseconds(5);
  sweep.base.duration = sim::milliseconds(15);
  sweep.base.drain = sim::milliseconds(5);
  sweep.base.workload.udp_interval = sim::microseconds(12);
  sweep.base.workload.burst_size = 4;
  sweep.base.workload.jitter = 0.5;
  sweep.base.workload.payload_size = 256;
  return sweep;
}

/// The FC probe: fc_campaign_test's mini campaign, over the FcFabric
/// realization (snapshot capture/restore goes through FcFabric's own
/// FabricSnapshot implementation).
orchestrator::SweepSpec fc_mini_sweep() {
  orchestrator::SweepSpec sweep;
  sweep.name = "snap-fc-mini";
  sweep.base_seed = 11;
  sweep.replicates = 2;
  sweep.startup_settle = sim::milliseconds(10);
  sweep.directions = {orchestrator::FaultDirection::kFromSwitch,
                      orchestrator::FaultDirection::kBoth};
  sweep.faults.push_back({"seu-00FF", nftape::random_bit_flip_seu(0x00FF), ""});
  sweep.faults.push_back(
      {"sofi3-blank",
       nftape::fc_ordered_set_corruption(fc::OrderedSet::kSofI3, 0x000F), ""});

  sweep.base.medium = nftape::Medium::kFc;
  sweep.testbed.fc.rx_processing_time = sim::microseconds(1);
  sweep.base.warmup = sim::milliseconds(5);
  sweep.base.duration = sim::milliseconds(15);
  sweep.base.drain = sim::milliseconds(5);
  sweep.base.workload.udp_interval = sim::microseconds(12);
  sweep.base.workload.burst_size = 4;
  sweep.base.workload.jitter = 0.5;
  sweep.base.workload.payload_size = 256;
  return sweep;
}

/// Runs the sweep through the runner's DEFAULT executor — the exact code
/// path run_sweep uses — and returns index-ordered JSONL (no timing).
std::string run_jsonl(const orchestrator::SweepSpec& sweep,
                      std::size_t workers, bool snapshots) {
  orchestrator::RunnerConfig rc;
  rc.workers = workers;
  rc.snapshots = snapshots;
  const auto records = orchestrator::Runner(rc).run_all(
      orchestrator::expand(sweep));
  std::ostringstream lines;
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, orchestrator::RunOutcome::kOk)
        << "run " << r.index << ": " << r.error;
    lines << orchestrator::to_jsonl(r, /*include_timing=*/false) << '\n';
  }
  return lines.str();
}

TEST(SnapshotEquivalence, MyrinetForkMatchesColdStart) {
  const std::string cold = run_jsonl(mini_sweep(), 1, /*snapshots=*/false);
  const std::string fork1 = run_jsonl(mini_sweep(), 1, /*snapshots=*/true);
  const std::string fork8 = run_jsonl(mini_sweep(), 8, /*snapshots=*/true);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, fork1)
      << "forked runs must be byte-identical to cold starts";
  EXPECT_EQ(cold, fork8)
      << "per-worker snapshot caches must not leak into results";
}

TEST(SnapshotEquivalence, FibreChannelForkMatchesColdStart) {
  const std::string cold = run_jsonl(fc_mini_sweep(), 1, /*snapshots=*/false);
  const std::string fork1 = run_jsonl(fc_mini_sweep(), 1, /*snapshots=*/true);
  const std::string fork8 = run_jsonl(fc_mini_sweep(), 8, /*snapshots=*/true);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, fork1);
  EXPECT_EQ(cold, fork8);
}

// ---------------------------------------------------------------------------
// Adaptive strategies: the controller constructs ONE Runner for the whole
// campaign, so its per-worker caches persist across batch rounds — the
// rounds after the first run entirely from forks.

adaptive::AdaptiveSpec adaptive_spec() {
  adaptive::AdaptiveSpec spec;
  spec.name = "snap-adaptive";
  spec.faults = {
      {"go-stop", nftape::control_symbol_corruption(ControlSymbol::kGo,
                                                    ControlSymbol::kStop), ""},
  };
  spec.directions = {orchestrator::FaultDirection::kFromSwitch};
  spec.knob = nftape::Knob::kUdpIntervalUs;
  spec.base_seed = 7;
  spec.max_rounds = 4;
  spec.startup_settle = sim::milliseconds(150);

  spec.testbed.map_period = sim::milliseconds(100);
  spec.testbed.nic_config.rx_processing_time = sim::microseconds(1);
  spec.testbed.send_stack_time = sim::microseconds(1);
  spec.base.warmup = sim::milliseconds(5);
  spec.base.duration = sim::milliseconds(10);
  spec.base.drain = sim::milliseconds(5);
  spec.base.workload.burst_size = 4;
  spec.base.workload.jitter = 0.5;
  spec.base.workload.payload_size = 256;
  return spec;
}

/// Runs one adaptive campaign (real execution, default executor) and
/// returns its emission-ordered JSONL.
std::string run_adaptive_jsonl(const std::string& which, bool snapshots) {
  adaptive::ControllerConfig config;
  config.runner.workers = 4;
  config.runner.snapshots = snapshots;
  adaptive::Controller controller(adaptive_spec(), std::move(config));

  orchestrator::StrategySpec strat;
  strat.name = which;
  strat.axis_lo = 8.0;
  strat.axis_hi = 64.0;
  strat.tolerance_us = 28.0;
  strat.target_count = 1;
  const auto strategy = adaptive::make_strategy(
      strat, controller.cells(), /*replicates=*/2, sim::microseconds(12));
  const auto outcome = controller.run(*strategy);
  EXPECT_FALSE(outcome.records.empty()) << which;
  std::string jsonl;
  for (const auto& rec : outcome.records) {
    EXPECT_EQ(rec.outcome, orchestrator::RunOutcome::kOk)
        << which << " run " << rec.index << ": " << rec.error;
    jsonl += orchestrator::to_jsonl(rec);
    jsonl += '\n';
  }
  return jsonl;
}

class SnapshotAdaptiveTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotAdaptiveTest, ForkMatchesColdStart) {
  const std::string cold = run_adaptive_jsonl(GetParam(), false);
  const std::string fork = run_adaptive_jsonl(GetParam(), true);
  EXPECT_EQ(cold, fork)
      << GetParam()
      << ": snapshot reuse across controller rounds must not change records";
}

INSTANTIATE_TEST_SUITE_P(Strategies, SnapshotAdaptiveTest,
                         ::testing::Values("fixed", "bisect", "coverage"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           return std::string(p.param);
                         });

// ---------------------------------------------------------------------------
// Committed digest: the snapshotted mini-campaign against a fixed
// reference, alongside tests/golden/mini_campaign.digest.

std::string golden_path() {
  return std::string(HSFI_GOLDEN_DIR) + "/mini_campaign_snapshot.digest";
}

TEST(SnapshotEquivalence, MatchesCommittedDigest) {
  const std::string jsonl = run_jsonl(mini_sweep(), 1, /*snapshots=*/true);
  Fnv1a fnv;
  for (const char ch : jsonl) fnv.byte(static_cast<std::uint8_t>(ch));
  const std::string digest = fnv.hex();

  if (const char* update = std::getenv("HSFI_UPDATE_GOLDEN");
      update != nullptr && *update) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << digest << '\n';
    GTEST_SKIP() << "updated " << golden_path() << " to " << digest;
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in) << "missing " << golden_path()
                  << " (generate with HSFI_UPDATE_GOLDEN=1)";
  std::string expected;
  in >> expected;
  EXPECT_EQ(digest, expected)
      << "snapshotted campaign results changed; if intended, regenerate "
      << golden_path() << " with HSFI_UPDATE_GOLDEN=1";
}

}  // namespace

// Tests for the one campaign executor (adaptive::execute_campaign): a
// static and a strategy-steered campaign killed through the crash seam
// and resumed in-process reproduce the uninterrupted bytes; a data file
// whose records do not match their adaptive checkpoint is refused before
// anything runs; the unnamed target the CLI flags lower to adds no run
// name prefix; and make_strategy / adaptive_spec build what the campaign
// file names.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "adaptive/execute.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/shard.hpp"

namespace hsfi::adaptive {
namespace {

using orchestrator::CampaignFile;
using orchestrator::parse_campaign_file;

// Two targets, two static batches each way: 4 runs, batch 2.
constexpr const char* kStatic = R"({
  "name": "exec-static", "seed": 3, "checkpoint_batch": 2,
  "defaults": {"warmup_ms": 2, "duration_ms": 5, "drain_ms": 2,
               "map_period_ms": 40, "replicates": 2, "directions": ["both"]},
  "targets": [
    {"name": "myri", "medium": "myrinet", "faults": ["gap-go"]},
    {"name": "fc", "medium": "fc", "faults": ["fill-flip"]}
  ]})";

// Bisection over two targets: myri takes three rounds (its from-switch
// cell bisects twice), fc converges in round 0 — four durable rounds.
constexpr const char* kAdaptive = R"({
  "name": "exec-adaptive", "seed": 5,
  "strategy": {"name": "bisect", "tolerance_us": 96, "max_rounds": 4},
  "defaults": {"warmup_ms": 2, "duration_ms": 5, "drain_ms": 2,
               "map_period_ms": 40},
  "targets": [
    {"name": "myri", "medium": "myrinet", "faults": ["gap-go"],
     "directions": ["from-switch", "both"]},
    {"name": "fc", "medium": "fc", "faults": ["fill-flip"],
     "directions": ["both"]}
  ]})";

struct Killed : std::runtime_error {
  Killed() : std::runtime_error("killed through the crash seam") {}
};

std::string scratch(const std::string& name) {
  const std::string path = testing::TempDir() + "hsfi_execute_" + name;
  std::remove(path.c_str());
  std::remove(orchestrator::checkpoint_path(path).c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

ExecuteOptions to_file(const std::string& out) {
  ExecuteOptions opts;
  opts.workers = 2;
  opts.out = out;
  return opts;
}

/// Runs `file` into `out`, kills it once `kill_at` batches/rounds are
/// durable, appends a torn record (the in-flight write a SIGKILL leaves),
/// then resumes in-process. Returns the resumed call's result.
ExecuteResult kill_and_resume(const CampaignFile& file, const std::string& out,
                              std::uint64_t kill_at) {
  ExecuteOptions crashing = to_file(out);
  crashing.after_durable = [kill_at](const std::string&, std::uint64_t n) {
    if (n >= kill_at) throw Killed();
  };
  EXPECT_THROW((void)execute_campaign(file, crashing), Killed);
  std::ofstream(out, std::ios::binary | std::ios::app)
      << "{\"run\":9999999,\"name\":\"torn-by-cra";
  ExecuteOptions resume = to_file(out);
  resume.resume = true;
  return execute_campaign(file, resume);
}

TEST(ExecuteCampaign, StaticKilledAndResumedInProcessIsByteIdentical) {
  const CampaignFile file = parse_campaign_file(kStatic);
  const std::string reference = scratch("static_ref.jsonl");
  const auto full = execute_campaign(file, to_file(reference));
  ASSERT_EQ(full.records.size(), 4u);
  EXPECT_EQ(full.restored, 0u);

  const std::string out = scratch("static_cut.jsonl");
  const auto resumed = kill_and_resume(file, out, 1);
  EXPECT_EQ(resumed.restored, 2u) << "one durable batch of two runs";
  EXPECT_EQ(resumed.records.size(), 2u);
  EXPECT_EQ(slurp(out), slurp(reference));
  const auto ckpt =
      orchestrator::read_checkpoint(orchestrator::checkpoint_path(out));
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_TRUE(ckpt->done);
}

TEST(ExecuteCampaign, AdaptiveKilledAndResumedInProcessIsByteIdentical) {
  const CampaignFile file = parse_campaign_file(kAdaptive);
  const std::string reference = scratch("adaptive_ref.jsonl");
  const auto full = execute_campaign(file, to_file(reference));
  ASSERT_EQ(full.rounds, 4u);
  ASSERT_TRUE(full.converged);
  const std::string bytes = slurp(reference);

  // Mid-target (myri's round 1 durable) and at the target boundary
  // (myri's last round durable, its done flag not yet written).
  for (const std::uint64_t kill_at : {2u, 3u}) {
    const std::string out =
        scratch("adaptive_cut" + std::to_string(kill_at) + ".jsonl");
    const auto resumed = kill_and_resume(file, out, kill_at);
    EXPECT_GT(resumed.restored, 0u) << "kill at " << kill_at;
    EXPECT_EQ(resumed.restored + resumed.records.size(), full.records.size())
        << "kill at " << kill_at;
    EXPECT_EQ(slurp(out), bytes) << "kill at " << kill_at;
    const auto ckpt = orchestrator::read_adaptive_checkpoint(
        orchestrator::checkpoint_path(out), file.digest, 2);
    ASSERT_TRUE(ckpt.has_value());
    EXPECT_TRUE(ckpt->targets[0].done);
    EXPECT_TRUE(ckpt->targets[1].done);
  }
}

/// One-target bisect campaign whose sidecar claims one durable round of
/// one record, over a data file holding the record `line`.
void expect_resume_refuses(const std::string& line, const std::string& why) {
  CampaignFile file = parse_campaign_file(kAdaptive);
  file.targets.resize(1);
  const std::string out = scratch("tampered.jsonl");
  std::ofstream(out, std::ios::binary) << line << '\n';
  orchestrator::AdaptiveCheckpoint ckpt;
  ckpt.spec_digest = file.digest;
  ckpt.bytes = line.size() + 1;
  ckpt.targets = {{1, 1, false}};
  orchestrator::write_adaptive_checkpoint(orchestrator::checkpoint_path(out),
                                          ckpt);
  ExecuteOptions opts = to_file(out);
  opts.resume = true;
  opts.after_durable = [](const std::string&, std::uint64_t) {
    ADD_FAILURE() << "a tampered resume executed a round";
  };
  try {
    (void)execute_campaign(file, opts);
    ADD_FAILURE() << "resumed over a tampered record: " << line;
  } catch (const ReplayMismatch& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
  EXPECT_EQ(slurp(out), line + "\n") << "the refused data file was modified";
}

TEST(ExecuteCampaign, AdaptiveResumeRefusesRecordsPastTheCheckpointRounds) {
  orchestrator::RunRecord rec;
  rec.name = "myri:gap-go/from-switch/udp-us=396/r0";
  rec.strategy = "bisect";
  rec.outcome = orchestrator::RunOutcome::kOk;
  const std::string line = orchestrator::to_jsonl(rec);
  const auto with_round = [&](const std::string& round) {
    std::string tampered = line;
    const auto at = tampered.find("\"round\":0");
    EXPECT_NE(at, std::string::npos) << line;
    tampered.replace(at, 9, "\"round\":" + round);
    return tampered;
  };
  // UINT64_MAX: round + 1 wraps to 0, the size the replay would resize to.
  expect_resume_refuses(with_round("18446744073709551615"),
                        "is from round 18446744073709551615");
  // A plausible-looking later round the checkpoint never made durable.
  expect_resume_refuses(with_round("5"), "is from round 5");
  // The sidecar's round count must be covered exactly.
  expect_resume_refuses(with_round("1"), "is from round 1");
}

TEST(ExecuteCampaign, StrategyCampaignsRefuseShardLayouts) {
  ExecuteOptions opts;
  opts.shard = 1;
  opts.of = 2;
  EXPECT_THROW((void)execute_campaign(parse_campaign_file(kAdaptive), opts),
               orchestrator::ShardError);
}

TEST(ExecuteCampaign, UnnamedTargetAddsNoRunNamePrefix) {
  CampaignFile file = parse_campaign_file(kStatic);
  file.targets.resize(1);
  file.targets[0].name.clear();
  for (const auto& run : orchestrator::expand_campaign(file)) {
    EXPECT_EQ(run.campaign.name.rfind("gap-go/", 0), 0u) << run.campaign.name;
  }
  CampaignFile steered = parse_campaign_file(kAdaptive);
  steered.targets[0].name.clear();
  const AdaptiveSpec unnamed = adaptive_spec(steered, steered.targets[0], 0);
  EXPECT_EQ(unnamed.name_prefix, "");
  EXPECT_EQ(unnamed.name, "exec-adaptive");
  const AdaptiveSpec named = adaptive_spec(steered, steered.targets[1], 7);
  EXPECT_EQ(named.name_prefix, "fc:");
  EXPECT_EQ(named.index_base, 7u);
  EXPECT_EQ(named.base_seed, steered.targets[1].sweep.base_seed);
  EXPECT_EQ(named.max_rounds, 4u);
}

TEST(ExecuteCampaign, MakeStrategyBuildsTheNamedStrategy) {
  const std::vector<Cell> cells = {{0, 0}, {0, 1}};
  orchestrator::StrategySpec spec;
  for (const char* name : {"fixed", "bisect", "coverage"}) {
    spec.name = name;
    const auto strategy =
        make_strategy(spec, cells, 3, sim::microseconds(12));
    EXPECT_EQ(strategy->name(), name);
  }
  // Fixed: one round of every cell x replicate at the workload's pace.
  spec.name = "fixed";
  const auto fixed = make_strategy(spec, cells, 3, sim::microseconds(12));
  const auto round0 = fixed->next_round(0);
  ASSERT_EQ(round0.size(), 6u);
  EXPECT_DOUBLE_EQ(round0.front().knob_value, 12.0);
  // Bisect: round 0 probes both ends of the spec's axis per cell.
  spec.name = "bisect";
  const auto bisect = make_strategy(spec, cells, 3, sim::microseconds(12));
  const auto probes = bisect->next_round(0);
  ASSERT_EQ(probes.size(), 4u);
  EXPECT_DOUBLE_EQ(probes[0].knob_value, spec.axis_hi);
  EXPECT_DOUBLE_EQ(probes[1].knob_value, spec.axis_lo);
  spec.name = "greedy";
  EXPECT_THROW((void)make_strategy(spec, cells, 3, sim::microseconds(12)),
               std::invalid_argument);
}

TEST(ExecuteCampaign, BurstBisectionBracketsAtTheIntenseHighEnd) {
  // Larger bursts are more intense: a cell that manifests from burst 6 up
  // must bracket its threshold between a masked value below 6 and a
  // manifested one at or above it.
  orchestrator::StrategySpec spec;
  spec.name = "bisect";
  spec.knob = nftape::Knob::kBurstSize;
  spec.axis_lo = 1;
  spec.axis_hi = 16;
  spec.tolerance_us = 1;
  const auto strategy = make_strategy(spec, {{0, 0}}, 1, sim::microseconds(12));
  const auto* bisect = dynamic_cast<const BisectionStrategy*>(strategy.get());
  ASSERT_NE(bisect, nullptr);
  for (std::uint32_t round = 0; round < 16; ++round) {
    const auto requests = strategy->next_round(round);
    if (requests.empty()) break;
    std::vector<Observation> results;
    for (const auto& req : requests) {
      Observation obs;
      obs.request = req;
      obs.round = round;
      obs.ok = true;
      obs.injections = 8;
      obs.manifestations[analysis::Manifestation::kMasked] =
          req.knob_value >= 6 ? 0 : 8;
      obs.manifestations[analysis::Manifestation::kDroppedOther] =
          req.knob_value >= 6 ? 8 : 0;
      results.push_back(obs);
    }
    strategy->observe(results);
  }
  const CellThreshold& t = bisect->thresholds().at(0);
  ASSERT_TRUE(t.found);
  ASSERT_FALSE(std::isnan(t.masked_at)) << "burst 1 masks in this model";
  EXPECT_LT(t.masked_at, 6.0);
  EXPECT_GE(t.manifested_at, 6.0);
  EXPECT_LE(t.manifested_at - t.masked_at, 1.0);
}

TEST(ExecuteCampaign, CoverageRunsAtTheIntenseEndOfTheKnob) {
  // Larger bursts are more intense, so a burst coverage campaign explores
  // at axis_hi; on udp-us the intense end is the short interval, axis_lo.
  const CampaignFile file = parse_campaign_file(R"({
    "name": "coverage-burst",
    "strategy": {"name": "coverage", "knob": "burst", "axis_lo": 1,
                 "axis_hi": 16},
    "targets": [{"name": "myri", "faults": ["gap-go"],
                 "directions": ["both"]}]})");
  const auto& target = file.targets.at(0);
  const Controller controller(adaptive_spec(file, target, 0));
  const auto& workload = target.sweep.base.workload;
  const auto strategy =
      make_strategy(*file.strategy, controller.cells(), 1,
                    workload.udp_interval, workload.burst_size);
  const auto runs = controller.expand_round(strategy->next_round(0), 0, 0,
                                            strategy->name());
  ASSERT_FALSE(runs.empty());
  for (const auto& run : runs) {
    EXPECT_NE(run.campaign.name.find("/burst=16/"), std::string::npos)
        << run.campaign.name;
    EXPECT_EQ(run.campaign.workload.burst_size, 16u);
  }

  orchestrator::StrategySpec interval = *file.strategy;
  interval.knob = nftape::Knob::kUdpIntervalUs;
  interval.axis_lo = 12;
  interval.axis_hi = 396;
  const auto paced = make_strategy(interval, controller.cells(), 1,
                                   workload.udp_interval, workload.burst_size);
  const auto probes = paced->next_round(0);
  ASSERT_FALSE(probes.empty());
  EXPECT_DOUBLE_EQ(probes.front().knob_value, 12.0);
}

TEST(ExecuteCampaign, FixedBurstRunsAtTheTargetsBurstSize) {
  const CampaignFile file = parse_campaign_file(R"({
    "name": "fixed-burst",
    "strategy": {"name": "fixed", "knob": "burst"},
    "targets": [{"name": "myri", "faults": ["gap-go"], "burst_size": 6,
                 "udp_interval_us": 20, "directions": ["both"]}]})");
  const auto& target = file.targets.at(0);
  const Controller controller(adaptive_spec(file, target, 0));
  const auto& workload = target.sweep.base.workload;
  const auto strategy =
      make_strategy(*file.strategy, controller.cells(), 1,
                    workload.udp_interval, workload.burst_size);
  const auto runs = controller.expand_round(strategy->next_round(0), 0, 0,
                                            strategy->name());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].campaign.name, "myri:gap-go/both/burst=6/r0");
  EXPECT_EQ(runs[0].campaign.workload.burst_size, 6u);
  EXPECT_EQ(runs[0].campaign.workload.udp_interval, sim::microseconds(20));

  orchestrator::StrategySpec seu = *file.strategy;
  seu.knob = nftape::Knob::kSeuLfsrBits;
  EXPECT_THROW((void)make_strategy(seu, controller.cells(), 1,
                                   workload.udp_interval, workload.burst_size),
               std::invalid_argument);
}

}  // namespace
}  // namespace hsfi::adaptive

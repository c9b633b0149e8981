// Seeded-mutation fuzz tests for the readers of untrusted JSON: tailed
// JSONL run records (monitor::parse_record), campaign specs
// (parse_campaign_file), repro traces (parse_repro_trace), and checkpoint
// sidecars (read_checkpoint, read_adaptive_checkpoint). Every input starts
// from what the repo itself writes, round-trips exactly unmutated, and is
// then hit with byte flips, truncations, inserted tokens and duplicated
// members: each mutant must be refused through the reader's documented
// error channel (nullopt, CampaignFileError, ShardError) or accepted
// without crashing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/jsonl_reader.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/repro.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/shard.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

namespace hsfi::orchestrator {
namespace {

using analysis::Manifestation;

constexpr int kMutantsPerInput = 1000;

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_u64() % n);
}

/// The end of the JSON value or member starting at `from`: the first ',',
/// '}' or ']' outside any string or nested container.
std::size_t member_end(const std::string& text, std::size_t from) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = from; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']' || c == ',') {
      if (depth == 0) return i;
      if (c != ',') --depth;
    }
  }
  return text.size();
}

/// Copies one object member (or array element) that starts with a string
/// in front of itself: a duplicated key wherever it lands in an object.
bool duplicate_member(std::string& text, sim::Rng& rng) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 1; i < text.size(); ++i) {
    if (text[i] != '"') continue;
    std::size_t j = i;
    while (j > 0 && (text[j - 1] == ' ' || text[j - 1] == '\n')) --j;
    if (j > 0 && (text[j - 1] == '{' || text[j - 1] == ',')) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) return false;
  const std::size_t at = starts[pick(rng, starts.size())];
  const std::string member = text.substr(at, member_end(text, at) - at);
  text.insert(at, member + ",");
  return true;
}

enum class Mutation { kFlip, kTruncate, kInsert, kDuplicate };

Mutation mutate(std::string& text, sim::Rng& rng) {
  static constexpr std::string_view kTokens[] = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u00", "\\q", "-", "0",
      "1e999", "18446744073709551616", "-1", "0.5", "null", "true", " ",
      "\n", "\x01", "\xff", "{\"x\":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1"};
  switch (pick(rng, 4)) {
    case 0: {
      const std::size_t flips = 1 + pick(rng, 3);
      for (std::size_t i = 0; i < flips && !text.empty(); ++i) {
        text[pick(rng, text.size())] ^= static_cast<char>(1u << pick(rng, 8));
      }
      return Mutation::kFlip;
    }
    case 1:
      text.resize(pick(rng, text.size()));
      return Mutation::kTruncate;
    case 2:
      text.insert(pick(rng, text.size() + 1),
                  kTokens[pick(rng, std::size(kTokens))]);
      return Mutation::kInsert;
    default:
      if (duplicate_member(text, rng)) return Mutation::kDuplicate;
      text.resize(pick(rng, text.size()));
      return Mutation::kTruncate;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ---------------------------------------------------------------------------
// Run records: every shape to_jsonl emits.

RunRecord ok_record(std::size_t index, nftape::Medium medium) {
  RunRecord rec;
  rec.index = index;
  rec.name = "myri:gap-go/both/base/r" + std::to_string(index);
  rec.seed = sim::splitmix64(index + 11);
  rec.medium = medium;
  rec.outcome = RunOutcome::kOk;
  rec.attempts = 1;
  auto& r = rec.result;
  r.medium = medium;
  r.messages_sent = 120;
  r.messages_received = 117;
  r.window = sim::milliseconds(60);
  r.injections = 31;
  r.manifestations[Manifestation::kCrcDropped] = 4;
  r.manifestations[Manifestation::kTimeout] = 2;
  r.manifestations[Manifestation::kMasked] = 25;
  r.secondary_effects = 3;
  r.events_executed = 123456;
  return rec;
}

std::vector<RunRecord> record_shapes() {
  std::vector<RunRecord> shapes;
  shapes.push_back(ok_record(0, nftape::Medium::kMyrinet));
  shapes.push_back(ok_record(1, nftape::Medium::kFc));
  RunRecord steered = ok_record(2, nftape::Medium::kMyrinet);
  steered.name = "myri:gap-go/both/udp-us=204/r1";
  steered.strategy = "bisect";
  steered.round = 3;
  shapes.push_back(steered);
  RunRecord scripted = ok_record(3, nftape::Medium::kMyrinet);
  scripted.scenario = "flow-liar";
  scripted.result.scenario_steps_fired = 4;
  shapes.push_back(scripted);
  RunRecord failed = ok_record(4, nftape::Medium::kFc);
  failed.outcome = RunOutcome::kError;
  failed.attempts = 2;
  failed.error = "executor threw: \"bad\"\tstate\n";
  shapes.push_back(failed);
  RunRecord late = ok_record(5, nftape::Medium::kMyrinet);
  late.outcome = RunOutcome::kTimedOut;
  late.timeouts = 2;
  late.attempts = 2;
  shapes.push_back(late);
  return shapes;
}

void expect_round_trip(const RunRecord& rec, const monitor::ParsedRecord& p) {
  EXPECT_EQ(p.name, rec.name);
  EXPECT_EQ(p.outcome, to_string(rec.outcome));
  EXPECT_EQ(p.medium, nftape::to_string(rec.medium));
  EXPECT_EQ(p.strategy, rec.strategy);
  EXPECT_EQ(p.run, rec.index);
  EXPECT_EQ(p.seed, rec.seed);
  EXPECT_EQ(p.round, rec.strategy.empty() ? 0u : rec.round);
  if (rec.outcome == RunOutcome::kOk) {
    EXPECT_EQ(p.injections, rec.result.injections);
    EXPECT_EQ(p.duplicates, rec.result.duplicates());
    EXPECT_EQ(p.manifestations, rec.result.manifestations);
  } else {
    EXPECT_EQ(p.injections, 0u);
    EXPECT_EQ(p.manifestations.total(), 0u);
  }
}

TEST(JsonRoundTrip, EveryRecordShapeParsesBackExactly) {
  for (const auto& rec : record_shapes()) {
    for (const bool timing : {false, true}) {
      const std::string line = to_jsonl(rec, timing);
      const auto parsed = monitor::parse_record(line);
      ASSERT_TRUE(parsed.has_value()) << line;
      SCOPED_TRACE(line);
      expect_round_trip(rec, *parsed);
    }
  }
}

class JsonFuzz : public ::testing::TestWithParam<int> {
 protected:
  sim::Rng rng_{static_cast<std::uint64_t>(GetParam()) * 7919 + 1};
};

TEST_P(JsonFuzz, RecordMutantsAreRefusedOrParsedWhole) {
  std::size_t refused = 0;
  for (const auto& rec : record_shapes()) {
    const std::string line = to_jsonl(rec, GetParam() % 2 == 0);
    for (int i = 0; i < kMutantsPerInput; ++i) {
      std::string text = line;
      const Mutation m = mutate(text, rng_);
      const auto parsed = monitor::parse_record(text);
      if (!parsed) {
        ++refused;
        continue;
      }
      // Records hold no arrays, so a duplicated member is a duplicate key.
      EXPECT_NE(m, Mutation::kDuplicate) << text;
      EXPECT_FALSE(parsed->name.empty()) << text;
      EXPECT_FALSE(parsed->outcome.empty()) << text;
    }
  }
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// Campaign specs: the committed examples.

std::vector<std::string> example_specs() {
  std::vector<std::string> texts;
  for (const auto& entry : std::filesystem::directory_iterator(HSFI_SPEC_DIR)) {
    if (entry.path().extension() == ".json") {
      texts.push_back(slurp(entry.path().string()));
    }
  }
  return texts;
}

TEST(JsonRoundTrip, ExampleSpecsParseAndExpandDeterministically) {
  const auto specs = example_specs();
  ASSERT_GE(specs.size(), 3u);
  for (const auto& text : specs) {
    const CampaignFile file = parse_campaign_file(text);
    EXPECT_EQ(file.digest, fnv1a64(text));
    const auto a = expand_campaign(file);
    const auto b = expand_campaign(parse_campaign_file(text));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].campaign.name, b[i].campaign.name);
      EXPECT_EQ(a[i].seed, b[i].seed);
    }
  }
}

TEST_P(JsonFuzz, SpecMutantsAreRefusedOrParsedWhole) {
  std::size_t refused = 0;
  for (const auto& spec : example_specs()) {
    for (int i = 0; i < kMutantsPerInput; ++i) {
      std::string text = spec;
      mutate(text, rng_);
      try {
        const CampaignFile file = parse_campaign_file(text);
        EXPECT_FALSE(file.name.empty()) << text;
        EXPECT_FALSE(file.targets.empty()) << text;
        EXPECT_EQ(file.digest, fnv1a64(text));
      } catch (const CampaignFileError&) {
        ++refused;
      }
    }
  }
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// Repro traces.

std::string repro_document() {
  SweepSpec sweep;
  apply_grid_defaults(sweep);
  sweep.base_seed = 42;
  sweep.directions = {FaultDirection::kBoth};
  for (auto& f : standard_fault_axis(nftape::Medium::kMyrinet)) {
    if (f.name == "gap-go") sweep.faults.push_back(f);
  }
  sweep.base.scenario = scenario::find_scenario("flow-liar");
  RunRecord rec = ok_record(0, nftape::Medium::kMyrinet);
  rec.name = "gap-go/both/base/r0";
  rec.scenario = "flow-liar";
  return to_json(make_repro_trace(sweep, rec, "timeout"));
}

TEST(JsonRoundTrip, ReproTraceReEmitsItsOwnBytes) {
  const std::string text = repro_document();
  const ReproTrace trace = parse_repro_trace(text);
  EXPECT_EQ(to_json(trace), text);
  EXPECT_EQ(trace.scenario.name, "flow-liar");
  EXPECT_FALSE(trace.scenario.steps.empty());
  EXPECT_TRUE(monitor::parse_record(trace.jsonl).has_value());
}

TEST_P(JsonFuzz, ReproMutantsAreRefusedOrParsedWhole) {
  const std::string original = repro_document();
  std::size_t refused = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    std::string text = original;
    mutate(text, rng_);
    try {
      const ReproTrace trace = parse_repro_trace(text);
      EXPECT_FALSE(trace.name.empty()) << text;
      EXPECT_FALSE(trace.jsonl.empty()) << text;
      EXPECT_FALSE(trace.scenario.steps.empty()) << text;
    } catch (const CampaignFileError&) {
      ++refused;
    }
  }
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint sidecars.

std::string scratch(const std::string& name) {
  return testing::TempDir() + "hsfi_json_fuzz_" + name;
}

Checkpoint static_checkpoint() {
  Checkpoint ckpt;
  ckpt.spec_digest = 0x0123456789abcdefULL;
  ckpt.shard = 1;
  ckpt.of = 4;
  ckpt.batches = 3;
  ckpt.runs = 24;
  ckpt.bytes = 98765;
  return ckpt;
}

AdaptiveCheckpoint adaptive_checkpoint() {
  AdaptiveCheckpoint ckpt;
  ckpt.spec_digest = 0xfedcba9876543210ULL;
  ckpt.bytes = 4321;
  ckpt.targets = {{3, 24, true}, {1, 4, false}};
  return ckpt;
}

TEST(JsonRoundTrip, CheckpointSidecarsReadBackExactly) {
  const std::string path = scratch("static.ckpt");
  const Checkpoint want = static_checkpoint();
  write_checkpoint(path, want);
  const auto got = read_checkpoint(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->spec_digest, want.spec_digest);
  EXPECT_EQ(got->shard, want.shard);
  EXPECT_EQ(got->of, want.of);
  EXPECT_EQ(got->batches, want.batches);
  EXPECT_EQ(got->runs, want.runs);
  EXPECT_EQ(got->bytes, want.bytes);
  EXPECT_EQ(got->done, want.done);

  const std::string apath = scratch("adaptive.ckpt");
  const AdaptiveCheckpoint awant = adaptive_checkpoint();
  write_adaptive_checkpoint(apath, awant);
  const auto agot = read_adaptive_checkpoint(apath, awant.spec_digest, 2);
  ASSERT_TRUE(agot.has_value());
  EXPECT_EQ(agot->bytes, awant.bytes);
  ASSERT_EQ(agot->targets.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(agot->targets[i].rounds, awant.targets[i].rounds);
    EXPECT_EQ(agot->targets[i].records, awant.targets[i].records);
    EXPECT_EQ(agot->targets[i].done, awant.targets[i].done);
  }
}

TEST_P(JsonFuzz, CheckpointMutantsAreRefusedOrReadWhole) {
  const std::string path = scratch("static_" + std::to_string(GetParam()));
  const std::string apath = scratch("adaptive_" + std::to_string(GetParam()));
  write_checkpoint(path, static_checkpoint());
  write_adaptive_checkpoint(apath, adaptive_checkpoint());
  const std::string original = slurp(path);
  const std::string aoriginal = slurp(apath);
  std::size_t refused = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    std::string text = original;
    mutate(text, rng_);
    spit(path, text);
    try {
      EXPECT_TRUE(read_checkpoint(path).has_value()) << text;
    } catch (const ShardError&) {
      ++refused;
    }

    text = aoriginal;
    mutate(text, rng_);
    spit(apath, text);
    try {
      const auto ckpt =
          read_adaptive_checkpoint(apath, adaptive_checkpoint().spec_digest, 2);
      ASSERT_TRUE(ckpt.has_value()) << text;
      EXPECT_EQ(ckpt->targets.size(), 2u);
    } catch (const ShardError&) {
      ++refused;
    }
  }
  std::remove(path.c_str());
  std::remove(apath.c_str());
  EXPECT_GT(refused, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace hsfi::orchestrator

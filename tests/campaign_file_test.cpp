// Tests for the declarative campaign-file layer: the strict JSON document
// parser, schema validation (unknown keys anywhere are errors), default /
// override layering, per-target seed derivation, and the determinism of
// expand_campaign — the property sharded execution stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "nftape/medium.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/sweep.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace hsfi::orchestrator {
namespace {

using sim::microseconds;
using sim::milliseconds;
using sim::nanoseconds;

// ---------------------------------------------------------------------------
// JSON document parser (src/orchestrator/json_value.hpp)

TEST(JsonValueTest, ParsesScalarsArraysAndNesting) {
  const auto doc = parse_json(
      R"({"a": 1, "b": [true, null, "xA\n"], "c": {"d": -2.5}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);

  std::uint64_t a = 0;
  ASSERT_NE(doc->find("a"), nullptr);
  EXPECT_TRUE(doc->find("a")->as_u64(a));
  EXPECT_EQ(a, 1u);

  const auto* b = doc->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_EQ(b->items[0].kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(b->items[2].text, "xA\n");  // A decodes to 'A'

  const auto* d = doc->find("c")->find("d");
  ASSERT_NE(d, nullptr);
  double val = 0;
  EXPECT_TRUE(d->as_double(val));
  EXPECT_EQ(val, -2.5);
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(parse_json(R"({"a": 1, "a": 2})", &error).has_value());
  EXPECT_NE(error.find("duplicate key"), std::string::npos) << error;

  EXPECT_FALSE(parse_json(R"({"a": 1} trailing)", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\": \"raw\tcontrol\"}", &error).has_value());
  EXPECT_FALSE(parse_json(R"({"a": )", &error).has_value());
  EXPECT_FALSE(parse_json("", &error).has_value());

  // Depth bomb: past the recursion cap the parser must bail, not crash.
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += '[';
  EXPECT_FALSE(parse_json(deep, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
}

TEST(JsonValueTest, U64IsExactAtTheBoundary) {
  // Seeds are full-range uint64; a double round-trip would corrupt them.
  const auto doc = parse_json(R"({"max": 18446744073709551615})");
  ASSERT_TRUE(doc.has_value());
  std::uint64_t v = 0;
  ASSERT_TRUE(doc->find("max")->as_u64(v));
  EXPECT_EQ(v, 18446744073709551615ull);

  // Fractions, signs, and exponents are not integers.
  for (const char* text :
       {R"({"v": 1.5})", R"({"v": -1})", R"({"v": 1e3})",
        R"({"v": 18446744073709551616})", R"({"v": "7"})"}) {
    const auto bad = parse_json(text);
    ASSERT_TRUE(bad.has_value()) << text;
    std::uint64_t out = 0;
    EXPECT_FALSE(bad->find("v")->as_u64(out)) << text;
  }
}

// ---------------------------------------------------------------------------
// Campaign-file schema

TEST(CampaignFileTest, MinimalSpecResolvesCliDefaults) {
  const auto file = parse_campaign_file(
      R"({"name": "mini", "targets": [{"medium": "fc"}]})");
  EXPECT_EQ(file.name, "mini");
  EXPECT_EQ(file.base_seed, 1u);
  EXPECT_EQ(file.checkpoint_batch, 8u);
  EXPECT_FALSE(file.strategy.has_value());
  ASSERT_EQ(file.targets.size(), 1u);

  const auto& t = file.targets[0];
  EXPECT_EQ(t.name, "fc");  // defaults to the medium string
  EXPECT_EQ(t.sweep.base.medium, nftape::Medium::kFc);
  // The full FC fault axis when "faults" is absent.
  EXPECT_EQ(t.sweep.faults.size(),
            standard_fault_axis(nftape::Medium::kFc).size());
  // CLI sweep base values carried over.
  EXPECT_EQ(t.sweep.base.duration, milliseconds(60));
  EXPECT_EQ(t.sweep.base.workload.udp_interval, microseconds(12));
  EXPECT_EQ(t.sweep.replicates, 2u);
  EXPECT_EQ(t.sweep.directions.size(), 2u);
  // Target seed is derived from (file seed, ordinal), not the file seed
  // itself — targets must draw disjoint seed streams.
  EXPECT_EQ(t.sweep.base_seed, sim::derive_seed(1, 0));
}

TEST(CampaignFileTest, DefaultsOverlayThenTargetOverrides) {
  const auto file = parse_campaign_file(R"({
    "name": "layered", "seed": 9,
    "defaults": {"replicates": 3, "duration_ms": 7.5, "udp_interval_us": 48},
    "targets": [
      {"name": "a", "medium": "myrinet", "faults": ["gap-go"]},
      {"name": "b", "medium": "myrinet", "replicates": 1,
       "directions": ["to-switch"]}
    ]})");
  ASSERT_EQ(file.targets.size(), 2u);
  const auto& a = file.targets[0].sweep;
  const auto& b = file.targets[1].sweep;
  EXPECT_EQ(a.replicates, 3u);
  EXPECT_EQ(b.replicates, 1u);  // target wins over defaults
  // Fractional milliseconds land exactly on the picosecond grid.
  EXPECT_EQ(a.base.duration, nanoseconds(7'500'000));
  EXPECT_EQ(b.base.duration, nanoseconds(7'500'000));
  EXPECT_EQ(a.base.workload.udp_interval, microseconds(48));
  ASSERT_EQ(a.faults.size(), 1u);
  EXPECT_EQ(a.faults[0].name, "gap-go");
  ASSERT_EQ(b.directions.size(), 1u);
  EXPECT_EQ(b.directions[0], FaultDirection::kToSwitch);
  EXPECT_EQ(a.base_seed, sim::derive_seed(9, 0));
  EXPECT_EQ(b.base_seed, sim::derive_seed(9, 1));
  EXPECT_NE(a.base_seed, b.base_seed);
}

TEST(CampaignFileTest, UnknownKeysAreNamedErrors) {
  // Operator input: a typo must throw naming the key, never be ignored.
  const struct {
    const char* text;
    const char* key;
  } cases[] = {
      {R"({"name": "x", "sede": 1, "targets": [{}]})", "sede"},
      {R"({"name": "x", "targets": [{"durration_ms": 5}]})", "durration_ms"},
      {R"({"name": "x", "defaults": {"fualts": []}, "targets": [{}]})",
       "fualts"},
      {R"({"name": "x", "strategy": {"name": "bisect", "tollerance": 1},
           "targets": [{}]})",
       "tollerance"},
      {R"({"name": "x",
           "targets": [{"grid": [{"name": "g", "bursts": 2}]}]})",
       "bursts"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse_campaign_file(c.text);
      FAIL() << "accepted unknown key " << c.key;
    } catch (const CampaignFileError& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignFileTest, UnknownKeysReportTheirFullJsonPath) {
  // Not just the leaf key: the whole path, so a typo deep in an overlay or
  // a second target is findable without diffing the file.
  const struct {
    const char* text;
    const char* path;
  } cases[] = {
      {R"({"name": "x", "targets": [{}, {"durration_ms": 5}]})",
       "targets[1].durration_ms"},
      {R"({"name": "x",
           "targets": [{"grid": [{"name": "g"},
                                 {"name": "h", "bursts": 2}]}]})",
       "targets[0].grid[1].bursts"},
      {R"({"name": "x", "strategy": {"name": "bisect", "knb": 1},
           "targets": [{}]})",
       "strategy.knb"},
      {R"({"name": "x", "defaults": {"jitterr": 0.5}, "targets": [{}]})",
       "defaults.jitterr"},
      {R"({"name": "x",
           "targets": [{"scenario": {"name": "s",
                                     "steps": [{"kind": "lying-go",
                                                "at_ms": 1, "nod": 2}]}}]})",
       "targets[0].scenario.steps[0].nod"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse_campaign_file(c.text);
      FAIL() << "accepted unknown key at " << c.path;
    } catch (const CampaignFileError& e) {
      EXPECT_NE(std::string(e.what()).find(c.path), std::string::npos)
          << "wanted path '" << c.path << "' in: " << e.what();
    }
  }
}

TEST(CampaignFileTest, ScenarioBlockResolvesRegistryName) {
  const auto file = parse_campaign_file(R"({
    "name": "s",
    "targets": [{"medium": "myrinet", "faults": ["gap-go"],
                 "scenario": {"name": "flow-liar"}}]})");
  const auto& sweep = file.targets[0].sweep;
  ASSERT_TRUE(sweep.base.scenario.has_value());
  EXPECT_EQ(sweep.base.scenario->name, "flow-liar");
  EXPECT_EQ(*sweep.base.scenario, *scenario::find_scenario("flow-liar"));
}

TEST(CampaignFileTest, ScenarioBlockParsesInlineSteps) {
  const auto file = parse_campaign_file(R"({
    "name": "s",
    "targets": [{"medium": "fc",
                 "scenario": {"name": "storm", "steps": [
                   {"kind": "rrdy-flood", "at_ms": 1.5, "node": 2,
                    "count": 24},
                   {"kind": "dup-sequence", "at_ms": 3}]}}]})");
  const auto& scen = file.targets[0].sweep.base.scenario;
  ASSERT_TRUE(scen.has_value());
  EXPECT_EQ(scen->name, "storm");
  ASSERT_EQ(scen->steps.size(), 2u);
  EXPECT_EQ(scen->steps[0].kind, scenario::StepKind::kRrdyFlood);
  EXPECT_EQ(scen->steps[0].at, nanoseconds(1'500'000));
  EXPECT_EQ(scen->steps[0].node, 2u);
  EXPECT_EQ(scen->steps[0].count, 24u);
  EXPECT_EQ(scen->steps[1].kind, scenario::StepKind::kDupSequence);
  EXPECT_EQ(scen->steps[1].count, 1u);  // scalar default
}

TEST(CampaignFileTest, ScenarioBlockRejectsBadPrograms) {
  const char* bad[] = {
      // unknown registry name, no inline steps
      R"({"name": "x", "targets": [{"scenario": {"name": "ghost"}}]})",
      // FC step program armed on a Myrinet target
      R"({"name": "x", "targets": [{"medium": "myrinet",
          "scenario": {"name": "rrdy-storm"}}]})",
      // at_ms 0 would fire outside the analyzer's (begin, end] window
      R"({"name": "x", "targets": [{"medium": "myrinet",
          "scenario": {"name": "s",
                       "steps": [{"kind": "lying-go", "at_ms": 0}]}}]})",
      // a step needs a kind
      R"({"name": "x", "targets": [{"medium": "myrinet",
          "scenario": {"name": "s", "steps": [{"at_ms": 1}]}}]})",
      // inline steps must be non-empty
      R"({"name": "x", "targets": [{"medium": "myrinet",
          "scenario": {"name": "s", "steps": []}}]})",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_campaign_file(text), CampaignFileError) << text;
  }

  // An unknown step kind names its full path too.
  try {
    (void)parse_campaign_file(
        R"({"name": "x", "targets": [{"medium": "myrinet",
            "scenario": {"name": "s",
                         "steps": [{"kind": "gremlin", "at_ms": 1}]}}]})");
    FAIL() << "accepted unknown step kind";
  } catch (const CampaignFileError& e) {
    EXPECT_NE(std::string(e.what()).find("targets[0].scenario.steps[0].kind"),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignFileTest, RejectsInvalidSpecs) {
  const char* bad[] = {
      R"({"targets": [{}]})",                                  // no name
      R"({"name": "x"})",                                      // no targets
      R"({"name": "x", "targets": []})",                       // empty targets
      R"({"name": "x", "targets": [{"medium": "ethernet"}]})", // bad medium
      R"({"name": "x", "targets": [{"faults": ["fill-flip"]}]})",  // FC fault
                                                                   // on myrinet
      R"({"name": "x", "targets": [{"name": "a/b"}]})",        // '/' in name
      R"({"name": "x", "targets": [{"name": "a:b"}]})",        // ':' in name
      R"({"name": "x", "targets": [{"name": "t"}, {"name": "t"}]})",
      R"({"name": "x", "targets": [{"directions": ["up"]}]})",
      R"({"name": "x", "seed": "7", "targets": [{}]})",        // string seed
      R"({"name": "x", "checkpoint_batch": 0, "targets": [{}]})",
      R"({"name": "x", "defaults": {"grid": [{"name": "g"}]},
          "targets": [{}]})",                                  // grid in
                                                               // defaults
      R"({"name": "x", "strategy": {"name": "bisect"},
          "targets": [{"grid": [{"name": "g"}]}]})",  // grid under a strategy
      R"({"name": "x", "strategy": {"name": "anneal"}, "targets": [{}]})",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_campaign_file(text), CampaignFileError) << text;
  }
}

TEST(CampaignFileTest, StrategyBlockParses) {
  const auto file = parse_campaign_file(R"({
    "name": "steered",
    "strategy": {"name": "bisect", "knob": "udp-us", "axis_lo": 24,
                 "axis_hi": 200, "tolerance_us": 8, "max_rounds": 6,
                 "target_count": 3},
    "targets": [{"medium": "myrinet", "faults": ["gap-go"]}]})");
  ASSERT_TRUE(file.strategy.has_value());
  EXPECT_EQ(file.strategy->name, "bisect");
  EXPECT_EQ(file.strategy->axis_lo, 24.0);
  EXPECT_EQ(file.strategy->axis_hi, 200.0);
  EXPECT_EQ(file.strategy->tolerance_us, 8.0);
  EXPECT_EQ(file.strategy->max_rounds, 6u);
  EXPECT_EQ(file.strategy->target_count, 3u);
}

TEST(CampaignFileTest, MaxRoundsBeyond32BitsIsRefused) {
  // 2^32 + 4 would truncate to a 4-round budget.
  try {
    (void)parse_campaign_file(R"({
      "name": "x", "strategy": {"name": "bisect", "max_rounds": 4294967300},
      "targets": [{"faults": ["gap-go"]}]})");
    FAIL() << "accepted a max_rounds above 2^32 - 1";
  } catch (const CampaignFileError& e) {
    EXPECT_NE(std::string(e.what()).find("strategy.max_rounds"),
              std::string::npos)
        << e.what();
  }
  const auto widest = parse_campaign_file(R"({
    "name": "x", "strategy": {"name": "bisect", "max_rounds": 4294967295},
    "targets": [{"faults": ["gap-go"]}]})");
  EXPECT_EQ(widest.strategy->max_rounds, 4294967295u);
}

TEST(CampaignFileTest, FixedStrategyRefusesTheSeuBitsKnob) {
  // fixed runs at the target's own value of its knob; the LFSR masks
  // seu-bits sets belong to the faults, so there is no such value.
  try {
    (void)parse_campaign_file(R"({
      "name": "x", "strategy": {"name": "fixed", "knob": "seu-bits"},
      "targets": [{"faults": ["gap-go"]}]})");
    FAIL() << "accepted fixed + seu-bits";
  } catch (const CampaignFileError& e) {
    EXPECT_NE(std::string(e.what()).find("strategy.knob"), std::string::npos)
        << e.what();
  }
  for (const char* knob : {"udp-us", "burst"}) {
    const auto file = parse_campaign_file(
        std::string(R"({"name": "x", "strategy": {"name": "fixed", "knob": ")") +
        knob + R"("}, "targets": [{"faults": ["gap-go"]}]})");
    EXPECT_EQ(nftape::to_string(file.strategy->knob), knob);
  }
}

TEST(CampaignFileTest, DigestBindsCheckpointsToTheExactText) {
  const std::string text =
      R"({"name": "x", "targets": [{"medium": "myrinet"}]})";
  std::string edited = text;
  edited.replace(edited.find("\"x\""), 3, "\"y\"");
  EXPECT_EQ(parse_campaign_file(text).digest, fnv1a64(text));
  EXPECT_NE(parse_campaign_file(text).digest, parse_campaign_file(edited).digest);
  // Even whitespace is identity: resuming against a reformatted spec is
  // refused rather than silently accepted.
  EXPECT_NE(fnv1a64(text), fnv1a64(text + "\n"));
}

// ---------------------------------------------------------------------------
// expand_campaign: global indexing, name prefixing, determinism

constexpr const char* kDualSpec = R"({
  "name": "dual", "seed": 7,
  "defaults": {"replicates": 2, "directions": ["from-switch", "both"],
               "warmup_ms": 2, "duration_ms": 5, "drain_ms": 2},
  "targets": [
    {"name": "myri", "medium": "myrinet", "faults": ["gap-go", "seu-00FF"]},
    {"name": "fc", "medium": "fc", "faults": ["fill-flip"]}
  ]})";

TEST(CampaignFileTest, ExpansionIsGloballyIndexedAndPrefixed) {
  const auto runs = expand_campaign(parse_campaign_file(kDualSpec));
  // 2 faults x 2 dirs x 2 reps + 1 fault x 2 dirs x 2 reps.
  ASSERT_EQ(runs.size(), 12u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);  // contiguous campaign-global indices
    const bool myri = i < 8;
    EXPECT_EQ(runs[i].campaign.medium, myri ? nftape::Medium::kMyrinet
                                            : nftape::Medium::kFc);
    EXPECT_EQ(runs[i].campaign.name.rfind(myri ? "myri:" : "fc:", 0), 0u)
        << runs[i].campaign.name;
  }
  EXPECT_EQ(runs[0].campaign.name, "myri:gap-go/from-switch/base/r0");
  EXPECT_EQ(runs[8].campaign.name, "fc:fill-flip/from-switch/base/r0");

  // Seeds are unique across the whole campaign (disjoint target streams).
  std::set<std::uint64_t> seeds;
  for (const auto& run : runs) seeds.insert(run.seed);
  EXPECT_EQ(seeds.size(), runs.size());
}

TEST(CampaignFileTest, ExpansionIsDeterministic) {
  // The sharding contract: every process that parses the same text must
  // reconstruct the identical run set.
  const auto a = expand_campaign(parse_campaign_file(kDualSpec));
  const auto b = expand_campaign(parse_campaign_file(kDualSpec));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].campaign.name, b[i].campaign.name);
    EXPECT_EQ(a[i].startup_settle, b[i].startup_settle);
  }
}

TEST(CampaignFileTest, StandardFaultAxesStayNamedAndDistinct) {
  for (const auto medium :
       {nftape::Medium::kMyrinet, nftape::Medium::kFc}) {
    const auto axis = standard_fault_axis(medium);
    ASSERT_FALSE(axis.empty());
    std::set<std::string> names;
    for (const auto& f : axis) {
      EXPECT_TRUE(f.config.has_value()) << f.name;
      names.insert(f.name);
    }
    EXPECT_EQ(names.size(), axis.size());
  }
}

}  // namespace
}  // namespace hsfi::orchestrator

// Schema check for BENCH_sim_kernel.json: a JSON array of flat records
//   {"bench": str, "metric": str, "value": number, "unit": str, "commit": str}
// Exactly these five keys, in this order (the file is machine-written, so
// ordering is part of the stable schema), at least one record, and every
// (bench, metric) pair unique. Exit 0 on pass; nonzero with a message
// naming the byte offset (syntax) or record index (schema) on any
// violation.
//
// Gate mode:  bench_json_check --gate BASELINE FRESH [--max-regress PCT]
// schema-checks both files, then compares every events_per_sec_median the
// files share: a fresh value more than PCT percent (default 20) below the
// committed baseline fails. Benches present in only one file are skipped
// (the smoke lane and the full-scale baseline need not run identical
// scenario sets), as are zero medians (a smoke configuration that executed
// no kernel events has nothing to compare). This is the CI tripwire that
// keeps the batched symbol path from silently regressing.
//
// The document is read by orchestrator::parse_json; this file checks only
// the schema on top of it, so a drifted writer still fails here.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "orchestrator/json_value.hpp"

namespace {

using hsfi::orchestrator::JsonValue;

/// (bench, metric) -> value for every record of one file.
using Values = std::map<std::pair<std::string, std::string>, double>;

bool fail(const std::string& why) {
  std::fprintf(stderr, "schema violation: %s\n", why.c_str());
  return false;
}

bool check_record(const JsonValue& rec, std::size_t index, Values& values) {
  static const char* const kKeys[] = {"bench", "metric", "value", "unit",
                                      "commit"};
  const std::string where = "record " + std::to_string(index) + ": ";
  if (rec.kind != JsonValue::Kind::kObject || rec.fields.size() != 5) {
    return fail(where + "record must be {bench, metric, value, unit, commit}");
  }
  std::string text[5];
  double value = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& [key, v] = rec.fields[i];
    if (key != kKeys[i]) {
      return fail(where + "expected key \"" + kKeys[i] + "\", got \"" + key +
                  "\"; record must be {bench, metric, value, unit, commit}");
    }
    if (i == 2) {
      if (!v.as_double(value)) return fail(where + "expected a number");
      continue;
    }
    if (v.kind != JsonValue::Kind::kString) {
      return fail(where + "expected a string");
    }
    if (v.text.empty()) return fail(where + "empty string field in record");
    text[i] = v.text;
  }
  if (!values.emplace(std::pair{text[0], text[1]}, value).second) {
    return fail(where + "duplicate (bench, metric) pair: " + text[0] + "/" +
                text[1]);
  }
  return true;
}

bool check_document(const std::string& text, Values& values) {
  std::string error;
  const auto doc = hsfi::orchestrator::parse_json(text, &error);
  if (!doc) return fail(error);
  if (doc->kind != JsonValue::Kind::kArray) {
    return fail("document must be an array of records");
  }
  if (doc->items.empty()) return fail("no records");
  for (std::size_t i = 0; i < doc->items.size(); ++i) {
    if (!check_record(doc->items[i], i, values)) return false;
  }
  return true;
}

std::optional<Values> load_and_check(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Values values;
  if (!check_document(buffer.str(), values)) {
    std::fprintf(stderr, "%s: FAILED schema check\n", path);
    return std::nullopt;
  }
  return values;
}

int gate(const char* baseline_path, const char* fresh_path,
         double max_regress_pct) {
  const auto baseline = load_and_check(baseline_path);
  if (!baseline) return 1;
  const auto fresh = load_and_check(fresh_path);
  if (!fresh) return 1;
  const std::string metric = "events_per_sec_median";
  const double floor_factor = 1.0 - max_regress_pct / 100.0;
  std::size_t compared = 0;
  std::size_t regressed = 0;
  for (const auto& [key, base_value] : *baseline) {
    if (key.second != metric) continue;
    const auto it = fresh->find(key);
    if (it == fresh->end()) continue;  // bench not in this lane
    const double fresh_value = it->second;
    if (base_value <= 0 || fresh_value <= 0) continue;  // nothing measured
    ++compared;
    const double ratio = fresh_value / base_value;
    const bool bad = fresh_value < base_value * floor_factor;
    std::printf("%-20s %12.1f -> %12.1f events/s (%.0f%% of baseline)%s\n",
                key.first.c_str(), base_value, fresh_value, ratio * 100.0,
                bad ? "  REGRESSION" : "");
    if (bad) ++regressed;
  }
  if (compared == 0) {
    std::fprintf(stderr, "gate: no comparable %s entries\n", metric.c_str());
    return 1;
  }
  if (regressed != 0) {
    std::fprintf(stderr,
                 "gate: %zu/%zu benches regressed more than %.0f%% below "
                 "the committed baseline\n",
                 regressed, compared, max_regress_pct);
    return 1;
  }
  std::printf("gate: %zu benches within %.0f%% of baseline\n", compared,
              max_regress_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--gate") == 0) {
    if (argc != 4 && argc != 6) {
      std::fprintf(stderr,
                   "usage: bench_json_check --gate BASELINE FRESH "
                   "[--max-regress PCT]\n");
      return 2;
    }
    double pct = 20.0;
    if (argc == 6) {
      if (std::strcmp(argv[4], "--max-regress") != 0) {
        std::fprintf(stderr, "unknown option %s\n", argv[4]);
        return 2;
      }
      pct = std::strtod(argv[5], nullptr);
      if (pct <= 0 || pct >= 100) {
        std::fprintf(stderr, "--max-regress must be in (0, 100)\n");
        return 2;
      }
    }
    return gate(argv[2], argv[3], pct);
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: bench_json_check FILE\n"
                 "       bench_json_check --gate BASELINE FRESH "
                 "[--max-regress PCT]\n");
    return 2;
  }
  if (!load_and_check(argv[1])) return 1;
  std::printf("%s: ok\n", argv[1]);
  return 0;
}

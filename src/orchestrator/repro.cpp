#include "orchestrator/repro.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/manifestation.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/jsonl.hpp"

namespace hsfi::orchestrator {

namespace {

constexpr std::string_view kMagic = "hsfi-repro-v1";

[[noreturn]] void bail(const std::string& what) {
  throw CampaignFileError(what);
}

/// Fixed-point formatting, like JsonObject::add_fixed: deterministic bytes
/// so emit -> parse -> emit is the identity on the file.
std::string fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace

std::string dominant_class(const nftape::CampaignResult& result) {
  std::uint64_t best = 0;
  analysis::Manifestation which = analysis::Manifestation::kMasked;
  for (const auto m : analysis::all_manifestations()) {
    if (m == analysis::Manifestation::kMasked) continue;
    const auto count = result.manifestations[m];
    if (count > best) {
      best = count;
      which = m;
    }
  }
  if (best == 0) return "";
  return std::string(analysis::to_string(which));
}

ReproTrace make_repro_trace(const SweepSpec& sweep, const RunRecord& record,
                            std::string expect) {
  ReproTrace trace;
  trace.name = record.name;
  trace.medium = sweep.base.medium;
  trace.seed = sweep.base_seed;
  trace.fault = sweep.faults.front().config ? sweep.faults.front().name : "";
  trace.direction = sweep.directions.front();
  trace.warmup = sweep.base.warmup;
  trace.duration = sweep.base.duration;
  trace.drain = sweep.base.drain;
  trace.udp_interval = sweep.base.workload.udp_interval;
  trace.payload_size = sweep.base.workload.payload_size;
  trace.burst_size = sweep.base.workload.burst_size;
  trace.jitter = sweep.base.workload.jitter;
  trace.scenario = sweep.base.scenario.value_or(scenario::ScenarioSpec{});
  trace.expect = std::move(expect);
  trace.jsonl = to_jsonl(record, false);
  return trace;
}

SweepSpec replay_sweep(const ReproTrace& trace, SweepSpec sweep) {
  sweep.name = "replay";
  sweep.base.medium = trace.medium;
  sweep.base.warmup = trace.warmup;
  sweep.base.duration = trace.duration;
  sweep.base.drain = trace.drain;
  sweep.base.workload.udp_interval = trace.udp_interval;
  sweep.base.workload.payload_size = trace.payload_size;
  sweep.base.workload.burst_size = trace.burst_size;
  sweep.base.workload.jitter = trace.jitter;
  sweep.base.scenario = trace.scenario;
  sweep.base_seed = trace.seed;
  sweep.directions = {trace.direction};
  sweep.replicates = 1;
  sweep.faults.clear();
  if (trace.fault.empty()) {
    sweep.faults = {{"baseline", std::nullopt, ""}};
    return sweep;
  }
  for (auto& f : standard_fault_axis(trace.medium)) {
    if (f.name == trace.fault) sweep.faults.push_back(std::move(f));
  }
  if (sweep.faults.empty()) {
    throw CampaignFileError("trace fault '" + trace.fault + "' is not on the " +
                            std::string(nftape::to_string(trace.medium)) +
                            " axis");
  }
  return sweep;
}

std::string to_json(const ReproTrace& trace) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"magic\": \"" << kMagic << "\",\n";
  out << "  \"name\": \"" << json_escape(trace.name) << "\",\n";
  out << "  \"medium\": \"" << nftape::to_string(trace.medium) << "\",\n";
  out << "  \"seed\": " << trace.seed << ",\n";
  out << "  \"fault\": \"" << json_escape(trace.fault) << "\",\n";
  out << "  \"direction\": \"" << to_string(trace.direction) << "\",\n";
  out << "  \"warmup_ms\": " << fixed(sim::to_milliseconds(trace.warmup), 6)
      << ",\n";
  out << "  \"duration_ms\": "
      << fixed(sim::to_milliseconds(trace.duration), 6) << ",\n";
  out << "  \"drain_ms\": " << fixed(sim::to_milliseconds(trace.drain), 6)
      << ",\n";
  out << "  \"udp_interval_us\": "
      << fixed(sim::to_microseconds(trace.udp_interval), 3) << ",\n";
  out << "  \"payload_size\": " << trace.payload_size << ",\n";
  out << "  \"burst_size\": " << trace.burst_size << ",\n";
  out << "  \"jitter\": " << fixed(trace.jitter, 6) << ",\n";
  out << "  \"scenario\": {\"name\": \"" << json_escape(trace.scenario.name)
      << "\", \"steps\": [";
  for (std::size_t i = 0; i < trace.scenario.steps.size(); ++i) {
    const auto& s = trace.scenario.steps[i];
    if (i != 0) out << ", ";
    out << "\n    {\"kind\": \"" << scenario::to_string(s.kind)
        << "\", \"at_ms\": " << fixed(sim::to_milliseconds(s.at), 6)
        << ", \"node\": " << s.node << ", \"count\": " << s.count << "}";
  }
  out << "\n  ]},\n";
  out << "  \"expect\": \"" << json_escape(trace.expect) << "\",\n";
  out << "  \"jsonl\": \"" << json_escape(trace.jsonl) << "\"\n";
  out << "}\n";
  return out.str();
}

namespace {

ReproTrace parse_document(std::string_view text) {
  std::string error;
  const auto doc = parse_json(text, &error);
  if (!doc) bail(error);
  if (doc->kind != JsonValue::Kind::kObject) bail("document must be an object");

  ReproTrace trace;
  bool have_magic = false, have_scenario = false;
  for (const auto& [key, value] : doc->fields) {
    if (key == "magic") {
      const auto magic = field_str(value, "magic");
      if (magic != kMagic) {
        bail("unsupported magic '" + magic + "' (want " + std::string(kMagic) +
             ")");
      }
      have_magic = true;
    } else if (key == "name") {
      trace.name = field_str(value, "name");
    } else if (key == "medium") {
      const auto m = nftape::parse_medium(field_str(value, "medium"));
      if (!m) bail("medium: unknown medium");
      trace.medium = *m;
    } else if (key == "seed") {
      trace.seed = field_u64(value, "seed");
    } else if (key == "fault") {
      trace.fault = field_str(value, "fault");
    } else if (key == "direction") {
      const auto d = field_str(value, "direction");
      if (d == "to-switch") {
        trace.direction = FaultDirection::kToSwitch;
      } else if (d == "from-switch") {
        trace.direction = FaultDirection::kFromSwitch;
      } else if (d == "both") {
        trace.direction = FaultDirection::kBoth;
      } else {
        bail("direction: unknown direction '" + d + "'");
      }
    } else if (key == "warmup_ms") {
      trace.warmup = field_ms(value, "warmup_ms");
    } else if (key == "duration_ms") {
      trace.duration = field_ms(value, "duration_ms");
    } else if (key == "drain_ms") {
      trace.drain = field_ms(value, "drain_ms");
    } else if (key == "udp_interval_us") {
      trace.udp_interval = field_us(value, "udp_interval_us");
    } else if (key == "payload_size") {
      trace.payload_size =
          static_cast<std::size_t>(field_u64(value, "payload_size"));
    } else if (key == "burst_size") {
      trace.burst_size =
          static_cast<std::size_t>(field_u64(value, "burst_size"));
    } else if (key == "jitter") {
      trace.jitter = field_num(value, "jitter");
    } else if (key == "scenario") {
      trace.scenario = parse_scenario(value, "scenario", /*registry=*/false);
      have_scenario = true;
    } else if (key == "expect") {
      trace.expect = field_str(value, "expect");
    } else if (key == "jsonl") {
      trace.jsonl = field_str(value, "jsonl");
    } else {
      bail("unknown key '" + key + "'");
    }
  }
  if (!have_magic) bail("\"magic\" is required");
  if (trace.name.empty()) bail("\"name\" is required");
  if (!have_scenario) bail("\"scenario\" is required");
  if (trace.jsonl.empty()) bail("\"jsonl\" is required");
  return trace;
}

}  // namespace

ReproTrace parse_repro_trace(std::string_view text) {
  try {
    return parse_document(text);
  } catch (const CampaignFileError& e) {
    throw CampaignFileError(std::string("repro trace: ") + e.what());
  }
}

ReproTrace load_repro_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CampaignFileError("repro trace: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_repro_trace(text.str());
}

}  // namespace hsfi::orchestrator

#include "monitor/jsonl_reader.hpp"

#include <fstream>

#include "orchestrator/json_value.hpp"

namespace hsfi::monitor {

std::optional<ParsedRecord> parse_record(std::string_view line) {
  using orchestrator::JsonValue;
  const auto doc = orchestrator::parse_json(line);
  if (!doc || doc->kind != JsonValue::Kind::kObject) return std::nullopt;

  ParsedRecord rec;
  // An absent field keeps its default; a present one of the wrong type is
  // schema drift, so the whole line is rejected rather than half-read.
  const auto text = [&doc](std::string_view key, std::string& out) {
    const JsonValue* v = doc->find(key);
    if (v == nullptr) return true;
    if (v->kind != JsonValue::Kind::kString) return false;
    out = v->text;
    return true;
  };
  const auto u64 = [&doc](std::string_view key, std::uint64_t& out) {
    const JsonValue* v = doc->find(key);
    return v == nullptr || v->as_u64(out);
  };
  bool ok = text("name", rec.name) && text("outcome", rec.outcome) &&
            text("medium", rec.medium) && text("strategy", rec.strategy) &&
            u64("run", rec.run) && u64("seed", rec.seed) &&
            u64("round", rec.round) && u64("injections", rec.injections) &&
            u64("duplicates", rec.duplicates);
  for (const auto m : analysis::all_manifestations()) {
    ok = ok && u64(analysis::jsonl_key(m), rec.manifestations[m]);
  }
  if (!ok || rec.name.empty() || rec.outcome.empty()) return std::nullopt;
  return rec;
}

std::size_t JsonlTailer::poll(
    const std::function<void(const ParsedRecord&)>& deliver) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;  // shard not started yet

  // Truncation/rotation check: a file shorter than the saved offset is a
  // new incarnation, not a continuation. Seeking blindly would park the
  // cursor at EOF and the tailer would silently read nothing forever —
  // and the torn-line carry from the old file must not be glued onto the
  // new file's first line.
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size < offset_) {
    offset_ = 0;
    partial_.clear();
    ++truncations_;
  }
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in) return 0;

  std::string chunk;
  char buffer[4096];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    chunk.append(buffer, static_cast<std::size_t>(in.gcount()));
    if (in.eof()) break;
  }
  offset_ += chunk.size();

  std::size_t delivered = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = chunk.find('\n', start);
    if (nl == std::string::npos) break;
    partial_.append(chunk, start, nl - start);
    start = nl + 1;
    if (!partial_.empty()) {
      if (const auto rec = parse_record(partial_)) {
        deliver(*rec);
        ++delivered;
      } else {
        ++malformed_;
      }
    }
    partial_.clear();
  }
  partial_.append(chunk, start, chunk.size() - start);
  return delivered;
}

}  // namespace hsfi::monitor

// The parsing half of the orchestrator's JSONL record contract, for
// out-of-process shards: a campaign shard writes one record per line
// (orchestrator::to_jsonl), and a monitor on the other side of the file
// tails it and folds each record into its streaming cells.
//
// Each line goes through orchestrator::parse_json, the repo's one JSON
// reader, and parse_record maps the object's folded fields. Malformed lines
// are rejected (nullopt), never half-ingested, so a torn write at the tail
// of a live file cannot corrupt cell totals.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/manifestation.hpp"

namespace hsfi::monitor {

/// The fields of one parsed run record that the streaming cells fold and
/// an adaptive resume replays (adaptive::Controller::run).
/// Latency histograms are not serialized in JSONL, so tail-mode cells carry
/// empty latency sketches — documented limitation of out-of-process feeds.
struct ParsedRecord {
  std::string name;
  std::string outcome;
  std::string medium = "myrinet";  ///< emitted only when not the default
  std::string strategy;            ///< empty for static sweeps
  std::uint64_t run = 0;
  std::uint64_t seed = 0;
  std::uint64_t round = 0;
  std::uint64_t injections = 0;
  std::uint64_t duplicates = 0;
  analysis::ManifestationBreakdown manifestations;

  [[nodiscard]] bool ok() const noexcept { return outcome == "ok"; }
};

/// Parses one JSONL record line (as produced by orchestrator::to_jsonl).
/// Returns nullopt when the line is not one complete JSON object, lacks a
/// name or outcome, or a known field has the wrong type. Unknown fields are
/// skipped, so the parser tolerates records from newer emitters.
[[nodiscard]] std::optional<ParsedRecord> parse_record(std::string_view line);

/// Incremental reader for a live JSONL file: each poll() picks up where the
/// last one stopped, delivers every newly completed line's record, and
/// holds any trailing partial line until the writer finishes it. The
/// out-of-process leg of the streaming analysis plane.
class JsonlTailer {
 public:
  explicit JsonlTailer(std::string path) : path_(std::move(path)) {}

  /// Reads newly appended complete lines and invokes `deliver` per parsed
  /// record, in file order. Returns the number delivered. Lines that fail
  /// to parse are counted in malformed() and dropped. A missing file is
  /// not an error (the shard may not have started yet) — returns 0.
  /// A file shorter than the saved offset means the writer truncated or
  /// rotated it: the tailer restarts from byte 0, drops the torn-line
  /// carry from the old incarnation, and counts it in truncations().
  std::size_t poll(const std::function<void(const ParsedRecord&)>& deliver);

  [[nodiscard]] std::uint64_t malformed() const noexcept { return malformed_; }
  /// Times the file shrank under the tailer (truncation or rotation-in-
  /// place); each one restarted the offset so tailing resumed.
  [[nodiscard]] std::uint64_t truncations() const noexcept {
    return truncations_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
  std::string partial_;
  std::uint64_t malformed_ = 0;
  std::uint64_t truncations_ = 0;
};

}  // namespace hsfi::monitor

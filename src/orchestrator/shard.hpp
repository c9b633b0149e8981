// Sharded, checkpointed campaign execution: split one expanded run set
// across independent processes, write each shard's records durably batch
// by batch, survive a mid-flight SIGKILL, and merge the shard files back
// into the byte-exact single-process JSONL.
//
// Partitioning is seed-keyed, not index-keyed: shard_of() hashes the
// run's derived seed through splitmix64, so ownership is a pure function
// of the spec — every process that expands the same campaign file agrees
// on who owns what without any coordination, and inserting a target into
// the spec reshuffles nothing that kept its seed.
//
// Durability contract (the JSONL file is the ground truth, the sidecar is
// the cursor): after every batch the data file is fsync'd first, then the
// sidecar is replaced atomically (tmp + fsync + rename). A crash between
// the two leaves a sidecar that under-counts — resume re-truncates the
// data file to the sidecar's byte offset, discarding the orphaned (or
// torn) tail, and re-executes from the last durable run. Records are
// deterministic, so the re-executed bytes equal the discarded ones.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "sim/rng.hpp"

namespace hsfi::orchestrator {

class ShardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which of `of` shards owns a run with this seed. of <= 1 degenerates to
/// the single-process case (everything is shard 0).
[[nodiscard]] constexpr std::uint32_t shard_of(std::uint64_t seed,
                                               std::uint32_t of) noexcept {
  return of <= 1 ? 0
                 : static_cast<std::uint32_t>(sim::splitmix64(seed) % of);
}

/// The subsequence of `runs` owned by shard `k` of `n`, in index order
/// (global indices are preserved — records still carry their campaign-wide
/// "run" field).
[[nodiscard]] std::vector<RunSpec> shard_runs(const std::vector<RunSpec>& runs,
                                              std::uint32_t k,
                                              std::uint32_t n);

/// Shard file naming: "<out>.shard<k>of<n>"; n <= 1 returns `out`
/// unchanged, so single-process checkpointed runs write the final file
/// directly.
[[nodiscard]] std::string shard_path(const std::string& out, std::uint32_t k,
                                     std::uint32_t n);

/// The sidecar: where a shard's durable output ends. `spec_digest` binds
/// it to one campaign file (fnv1a64 of the spec text) so a resume against
/// an edited spec is refused.
struct Checkpoint {
  std::uint64_t spec_digest = 0;
  std::uint32_t shard = 0;
  std::uint32_t of = 1;
  std::uint64_t batches = 0;  ///< durable batches completed
  std::uint64_t runs = 0;     ///< durable records (prefix of the shard's set)
  std::uint64_t bytes = 0;    ///< data-file size at the last durable batch
  bool done = false;
};

[[nodiscard]] std::string checkpoint_path(const std::string& shard_file);

/// Reads a sidecar. nullopt = file absent (fresh start); a present but
/// unreadable/mismatched document throws ShardError — a corrupt cursor
/// must never silently restart a half-finished campaign from zero.
[[nodiscard]] std::optional<Checkpoint> read_checkpoint(
    const std::string& path);

/// Atomically replaces `path` with one durable JSON line: write to
/// "<path>.tmp", fsync, rename over, fsync the directory.
void write_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// One target's cursor in a strategy-steered campaign's sidecar.
struct AdaptiveTargetCursor {
  std::uint64_t rounds = 0;   ///< durable rounds (replayed on resume)
  std::uint64_t records = 0;  ///< JSONL lines this target owns, in order
  bool done = false;
};

/// The sidecar of a strategy-steered campaign: one unsharded data file
/// whose records run target by target, round-major within a target. It
/// is rewritten at every round barrier, after the data file's fsync, with
/// the same magic, digest binding, and atomic replacement as Checkpoint,
/// tagged "mode":"adaptive":
///
///   {"magic":"hsfi-ckpt-v1","mode":"adaptive","spec":"<16 hex>",
///    "bytes":N,"targets":[{"rounds":R,"records":N,"done":false},...]}
struct AdaptiveCheckpoint {
  std::uint64_t spec_digest = 0;
  std::uint64_t bytes = 0;  ///< data-file size at the last round barrier
  std::vector<AdaptiveTargetCursor> targets;  ///< one per campaign target
};

/// Reads an adaptive sidecar. nullopt = file absent (fresh start). A
/// present document throws ShardError when it is malformed, belongs to
/// another spec (`spec_digest`), or does not hold exactly `targets`
/// cursors.
[[nodiscard]] std::optional<AdaptiveCheckpoint> read_adaptive_checkpoint(
    const std::string& path, std::uint64_t spec_digest, std::size_t targets);

/// Atomically replaces `path` with the adaptive sidecar line.
void write_adaptive_checkpoint(const std::string& path,
                               const AdaptiveCheckpoint& ckpt);

/// Append-only writer over a POSIX fd with explicit durability. Opening
/// truncates to `keep_bytes` first (crash recovery: everything past the
/// last durable checkpoint is discarded, including torn lines).
class DurableAppender {
 public:
  DurableAppender(const std::string& path, std::uint64_t keep_bytes);
  ~DurableAppender();
  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  void append(std::string_view text);  ///< full write; throws ShardError
  void sync();                         ///< fsync
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::string path_;
};

struct ShardOptions {
  std::size_t batch = 8;  ///< runs per durable batch (min 1)
  bool resume = false;
  bool include_timing = false;
  /// Fired after each batch becomes durable (data fsync'd, sidecar
  /// renamed) with the checkpoint just written. Test seam: crash-recovery
  /// tests hard-kill the process from here.
  std::function<void(const Checkpoint&)> after_batch;
};

struct ShardResult {
  /// Records executed by THIS invocation, in index order. Runs restored
  /// from the checkpoint are not re-materialized (their bytes are already
  /// in the file).
  std::vector<RunRecord> executed;
  std::uint64_t restored = 0;  ///< runs skipped via the checkpoint
};

/// Executes `runs` (already filtered to this shard) through `runner` in
/// batches, appending JSONL to `shard_file` with a durable checkpoint per
/// batch. `identity` carries spec_digest/shard/of; with opts.resume the
/// existing sidecar is validated against it and execution continues after
/// the last durable batch. Throws ShardError on I/O failure or a
/// checkpoint that belongs to a different spec or shard layout.
ShardResult run_sharded(Runner& runner, const std::vector<RunSpec>& runs,
                        const std::string& shard_file,
                        const Checkpoint& identity,
                        const ShardOptions& opts = {});

/// Merges the `of` shard files of `out` (shard_path naming) into `out`
/// itself, in global index order. Every expanded run must be present in
/// exactly its owning shard's file with a matching `"run":<index>` prefix;
/// gaps (an unfinished shard), extras, or misordered records throw
/// ShardError. Returns the number of records merged. The result is
/// byte-identical to a single-process run of the same spec.
std::size_t merge_shards(const std::vector<RunSpec>& runs,
                         const std::string& out, std::uint32_t of);

}  // namespace hsfi::orchestrator

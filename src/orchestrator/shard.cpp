#include "orchestrator/shard.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "orchestrator/campaign_file.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/jsonl.hpp"

namespace hsfi::orchestrator {

namespace {

[[noreturn]] void bail(const std::string& what) {
  throw ShardError("shard: " + what);
}

[[noreturn]] void bail_errno(const std::string& what) {
  bail(what + ": " + std::strerror(errno));
}

/// fsync the directory containing `path`, so a rename into it is durable.
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) bail_errno("open dir " + dir);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    bail_errno("fsync dir " + dir);
  }
  ::close(fd);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

/// Atomically replaces `path` with `text`: write "<path>.tmp", fsync,
/// rename over, fsync the directory.
void write_text_durable(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) bail_errno("open " + tmp);
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      errno = err;
      bail_errno("write " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    bail_errno("fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    bail_errno("rename " + tmp + " -> " + path);
  }
  sync_parent_dir(path);
}

constexpr std::string_view kMagic = "hsfi-ckpt-v1";

/// A sidecar document: nullopt when the file is absent; ShardError when it
/// is not JSON or does not carry kMagic.
std::optional<JsonValue> read_sidecar(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  auto doc = parse_json(text.str(), &error);
  if (!doc) bail("corrupt checkpoint " + path + " (" + error + ")");
  const auto* magic = doc->find("magic");
  if (magic == nullptr || magic->kind != JsonValue::Kind::kString ||
      magic->text != kMagic) {
    bail("checkpoint " + path + " has wrong magic");
  }
  return doc;
}

/// The ShardError boundary around the typed field readers
/// (orchestrator::field_*, or a lambda in their style that throws
/// CampaignFileError): the field `key` of `obj` read with `read`, or a
/// ShardError naming the field when it is missing or `read` refuses it.
template <typename Read>
auto read_field(const JsonValue& obj, const char* key, const std::string& path,
                Read read) {
  const std::string what =
      "checkpoint " + path + " missing/bad field '" + key + "'";
  const auto* v = obj.find(key);
  if (v == nullptr) bail(what);
  try {
    return read(*v, std::string(key));
  } catch (const CampaignFileError& e) {
    bail(what + " (" + e.what() + ")");
  }
}

/// shard/of are 32-bit: a wider value must not truncate into a layout that
/// matches the resuming process.
std::uint32_t field_u32(const JsonValue& v, const std::string& ctx) {
  const std::uint64_t n = field_u64(v, ctx);
  if (n > UINT32_MAX) throw CampaignFileError(ctx + " is out of range");
  return static_cast<std::uint32_t>(n);
}

/// The "spec" field: exactly the 16 lowercase hex digits hex64 writes.
std::uint64_t field_digest(const JsonValue& v, const std::string& ctx) {
  const std::string text = field_str(v, ctx);
  if (text.size() != 16 ||
      text.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw CampaignFileError(ctx + " must be 16 lowercase hex digits");
  }
  return std::strtoull(text.c_str(), nullptr, 16);
}

}  // namespace

std::vector<RunSpec> shard_runs(const std::vector<RunSpec>& runs,
                                std::uint32_t k, std::uint32_t n) {
  if (n == 0) bail("shard count must be positive");
  if (k >= n && !(k == 0 && n == 1)) {
    bail("shard index " + std::to_string(k) + " out of range for " +
         std::to_string(n) + " shards");
  }
  std::vector<RunSpec> mine;
  for (const auto& run : runs) {
    if (shard_of(run.seed, n) == k) mine.push_back(run);
  }
  return mine;
}

std::string shard_path(const std::string& out, std::uint32_t k,
                       std::uint32_t n) {
  if (n <= 1) return out;
  return out + ".shard" + std::to_string(k) + "of" + std::to_string(n);
}

std::string checkpoint_path(const std::string& shard_file) {
  return shard_file + ".ckpt";
}

std::optional<Checkpoint> read_checkpoint(const std::string& path) {
  const auto doc = read_sidecar(path);
  if (!doc) return std::nullopt;
  Checkpoint ckpt;
  ckpt.spec_digest = read_field(*doc, "spec", path, field_digest);
  ckpt.shard = read_field(*doc, "shard", path, field_u32);
  ckpt.of = read_field(*doc, "of", path, field_u32);
  ckpt.batches = read_field(*doc, "batches", path, field_u64);
  ckpt.runs = read_field(*doc, "runs", path, field_u64);
  ckpt.bytes = read_field(*doc, "bytes", path, field_u64);
  ckpt.done = read_field(*doc, "done", path, field_bool);
  return ckpt;
}

std::optional<AdaptiveCheckpoint> read_adaptive_checkpoint(
    const std::string& path, std::uint64_t spec_digest, std::size_t targets) {
  const auto doc = read_sidecar(path);
  if (!doc) return std::nullopt;
  const auto* mode = doc->find("mode");
  if (mode == nullptr || mode->kind != JsonValue::Kind::kString ||
      mode->text != "adaptive") {
    bail("checkpoint " + path + " is not an adaptive campaign's sidecar");
  }
  AdaptiveCheckpoint ckpt;
  ckpt.spec_digest = read_field(*doc, "spec", path, field_digest);
  if (ckpt.spec_digest != spec_digest) {
    bail("checkpoint " + path +
         " belongs to a different campaign spec — refusing to splice");
  }
  ckpt.bytes = read_field(*doc, "bytes", path, field_u64);
  const auto* list = doc->find("targets");
  if (list == nullptr || list->kind != JsonValue::Kind::kArray) {
    bail("checkpoint " + path + " missing/bad field 'targets'");
  }
  if (list->items.size() != targets) {
    bail("checkpoint " + path + " has " + std::to_string(list->items.size()) +
         " target cursors but the campaign has " + std::to_string(targets));
  }
  for (const auto& item : list->items) {
    AdaptiveTargetCursor cursor;
    cursor.rounds = read_field(item, "rounds", path, field_u64);
    cursor.records = read_field(item, "records", path, field_u64);
    cursor.done = read_field(item, "done", path, field_bool);
    ckpt.targets.push_back(cursor);
  }
  return ckpt;
}

void write_adaptive_checkpoint(const std::string& path,
                               const AdaptiveCheckpoint& ckpt) {
  std::string targets = "[";
  for (const auto& cursor : ckpt.targets) {
    JsonObject t;
    t.add_u64("rounds", cursor.rounds);
    t.add_u64("records", cursor.records);
    t.add_bool("done", cursor.done);
    if (targets.size() > 1) targets += ',';
    targets += t.str();
  }
  targets += ']';
  JsonObject o;
  o.add("magic", kMagic);
  o.add("mode", "adaptive");
  o.add("spec", hex64(ckpt.spec_digest));
  o.add_u64("bytes", ckpt.bytes);
  o.add_raw("targets", targets);
  write_text_durable(path, o.str() + "\n");
}

void write_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  JsonObject o;
  o.add("magic", kMagic);
  o.add("spec", hex64(ckpt.spec_digest));
  o.add_u64("shard", ckpt.shard);
  o.add_u64("of", ckpt.of);
  o.add_u64("batches", ckpt.batches);
  o.add_u64("runs", ckpt.runs);
  o.add_u64("bytes", ckpt.bytes);
  o.add_bool("done", ckpt.done);
  write_text_durable(path, o.str() + "\n");
}

DurableAppender::DurableAppender(const std::string& path,
                                 std::uint64_t keep_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) bail_errno("open " + path);
  // Crash recovery: drop everything past the last durable checkpoint
  // (torn lines, records whose sidecar update never landed).
  if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0) {
    bail_errno("ftruncate " + path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) bail_errno("lseek " + path);
  bytes_ = keep_bytes;
}

DurableAppender::~DurableAppender() {
  if (fd_ >= 0) ::close(fd_);
}

void DurableAppender::append(std::string_view text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd_, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      bail_errno("write " + path_);
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_ += text.size();
}

void DurableAppender::sync() {
  if (::fsync(fd_) != 0) bail_errno("fsync " + path_);
}

ShardResult run_sharded(Runner& runner, const std::vector<RunSpec>& runs,
                        const std::string& shard_file,
                        const Checkpoint& identity, const ShardOptions& opts) {
  Checkpoint ckpt = identity;
  ckpt.batches = 0;
  ckpt.runs = 0;
  ckpt.bytes = 0;
  ckpt.done = false;

  const std::string sidecar = checkpoint_path(shard_file);
  if (opts.resume) {
    if (const auto existing = read_checkpoint(sidecar)) {
      if (existing->spec_digest != identity.spec_digest) {
        bail("checkpoint " + sidecar +
             " belongs to a different campaign spec — refusing to splice");
      }
      if (existing->shard != identity.shard || existing->of != identity.of) {
        bail("checkpoint " + sidecar + " is for shard " +
             std::to_string(existing->shard) + "/" +
             std::to_string(existing->of) + ", not " +
             std::to_string(identity.shard) + "/" +
             std::to_string(identity.of));
      }
      if (existing->runs > runs.size()) {
        bail("checkpoint " + sidecar + " records " +
             std::to_string(existing->runs) + " runs but the shard only has " +
             std::to_string(runs.size()));
      }
      ckpt = *existing;
      ckpt.done = false;
    }
  }

  ShardResult result;
  result.restored = ckpt.runs;
  DurableAppender out(shard_file, ckpt.bytes);

  const std::size_t batch = opts.batch == 0 ? 1 : opts.batch;
  for (std::size_t i = ckpt.runs; i < runs.size(); i += batch) {
    const std::size_t count = std::min(batch, runs.size() - i);
    const std::vector<RunSpec> slice(runs.begin() + static_cast<long>(i),
                                     runs.begin() + static_cast<long>(i + count));
    auto records = runner.run_batch(slice);
    std::string lines;
    for (const auto& rec : records) {
      lines += to_jsonl(rec, opts.include_timing);
      lines += '\n';
    }
    // Data first, cursor second: the sidecar must never point past bytes
    // that are not yet on disk.
    out.append(lines);
    out.sync();
    ckpt.batches += 1;
    ckpt.runs += count;
    ckpt.bytes = out.bytes();
    write_checkpoint(sidecar, ckpt);
    for (auto& rec : records) result.executed.push_back(std::move(rec));
    if (opts.after_batch) opts.after_batch(ckpt);
  }

  ckpt.done = true;
  write_checkpoint(sidecar, ckpt);
  return result;
}

std::size_t merge_shards(const std::vector<RunSpec>& runs,
                         const std::string& out, std::uint32_t of) {
  if (of < 2) bail("merge needs at least 2 shards");
  // Load each shard's lines; cursors advance in lock-step with the global
  // index walk, which both orders the merge and proves completeness.
  std::vector<std::vector<std::string>> lines(of);
  std::vector<std::size_t> cursor(of, 0);
  for (std::uint32_t k = 0; k < of; ++k) {
    const std::string path = shard_path(out, k, of);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      bail("missing shard file " + path + " (did shard " + std::to_string(k) +
           " run?)");
    }
    std::string line;
    while (std::getline(in, line)) lines[k].push_back(line);
  }

  std::ostringstream merged;
  for (const auto& run : runs) {
    const std::uint32_t k = shard_of(run.seed, of);
    if (cursor[k] >= lines[k].size()) {
      bail("shard " + std::to_string(k) + " is missing run " +
           std::to_string(run.index) + " ('" + run.campaign.name +
           "') — resume it to completion first");
    }
    const std::string& line = lines[k][cursor[k]];
    const std::string prefix = "{\"run\":" + std::to_string(run.index) + ",";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      bail("shard " + std::to_string(k) + " record " +
           std::to_string(cursor[k]) + " does not start with " + prefix +
           " — shard files do not match this spec");
    }
    ++cursor[k];
    merged << line << '\n';
  }
  for (std::uint32_t k = 0; k < of; ++k) {
    if (cursor[k] != lines[k].size()) {
      bail("shard " + std::to_string(k) + " has " +
           std::to_string(lines[k].size() - cursor[k]) +
           " extra records beyond the spec's expansion");
    }
  }

  std::ofstream dest(out, std::ios::binary | std::ios::trunc);
  if (!dest) bail("cannot open " + out);
  dest << merged.str();
  if (!dest) bail("write failed for " + out);
  return runs.size();
}

}  // namespace hsfi::orchestrator

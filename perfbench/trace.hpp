// In-memory span recorder for the traced benchmark run.
//
// Every span is recorded by the benchmark's own code around its calls into
// the library's public API (the library carries no tracing). Spans stay in
// memory until the run ends, then go out as Chrome trace-event JSON and as
// a per-layer self-time table. A span's self time is its duration minus the
// part of its interval that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;  ///< relative to the tracer's origin
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  std::int64_t run = -1;     ///< campaign run index, -1 = none
  std::uint32_t tid = 0;     ///< small per-thread number
};

struct LayerTime {
  std::string layer;
  std::size_t spans = 0;
  double total_ms = 0.0;  ///< summed span durations
  double self_ms = 0.0;   ///< summed self times
};

class Tracer {
 public:
  Tracer();

  /// Nanoseconds since the tracer was constructed.
  [[nodiscard]] std::int64_t now_ns() const;

  /// Records a finished span on the calling thread; returns its id.
  std::int64_t add(std::string name, std::string layer, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::int64_t run = -1);
  /// Opens a span whose children are recorded before it ends; close() sets
  /// its end time.
  std::int64_t open(std::string name, std::string layer,
                    std::int64_t parent = -1);
  void close(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Per-layer totals and self times over the spans whose root span
  /// satisfies `keep_root`, sorted by self time, largest first.
  [[nodiscard]] std::vector<LayerTime> layer_times(
      const std::function<bool(const Span& root)>& keep_root) const;
  /// Writes {"traceEvents": [...]} (complete "X" events, microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  std::uint32_t tid_locked(std::thread::id thread);

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths share
/// the traced ones.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::string layer,
        std::int64_t parent = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_ = -1;
};

}  // namespace perfbench

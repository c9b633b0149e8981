#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t Tracer::tid_locked(std::thread::id thread) {
  const auto it = tids_.find(thread);
  if (it != tids_.end()) return it->second;
  const auto tid = static_cast<std::uint32_t>(tids_.size() + 1);
  tids_.emplace(thread, tid);
  return tid;
}

std::int64_t Tracer::add(std::string name, std::string layer,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t parent, std::int64_t run) {
  const std::thread::id thread = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = parent;
  s.run = run;
  s.tid = tid_locked(thread);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::int64_t Tracer::open(std::string name, std::string layer,
                          std::int64_t parent) {
  const std::int64_t t = now_ns();
  return add(std::move(name), std::move(layer), t, t, parent);
}

void Tracer::close(std::int64_t id) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<LayerTime> Tracer::layer_times(
    const std::function<bool(const Span& root)>& keep_root) const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  // Ids are indices, and a parent is always recorded before its children.
  std::vector<std::int64_t> root(all.size());
  for (const auto& s : all) {
    const auto i = static_cast<std::size_t>(s.id);
    root[i] = s.parent < 0 ? s.id : root[static_cast<std::size_t>(s.parent)];
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> layers;
  for (const auto& s : all) {
    if (!keep_root(all[static_cast<std::size_t>(root[static_cast<std::size_t>(s.id)])])) {
      continue;
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to this span.
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      bool have = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (have && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (have) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        have = true;
      }
      if (have) covered += cur_hi - cur_lo;
    }
    LayerTime& lt = layers[s.layer];
    lt.layer = s.layer;
    ++lt.spans;
    lt.total_ms += static_cast<double>(dur) / 1e6;
    lt.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : layers) out.push_back(lt);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const auto& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.layer) << ',' << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Scope::Scope(Tracer* tracer, std::string name, std::string layer,
             std::int64_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->open(std::move(name), std::move(layer), parent);
  }
}

Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

}  // namespace perfbench

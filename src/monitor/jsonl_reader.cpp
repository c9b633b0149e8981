#include "monitor/jsonl_reader.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>

namespace hsfi::monitor {

namespace {

/// Byte cursor over one line. All helpers return false on malformed input
/// and leave the caller to abandon the whole line.
struct Cursor {
  const char* p;
  const char* end;

  [[nodiscard]] bool done() const noexcept { return p >= end; }
  [[nodiscard]] char peek() const noexcept { return *p; }
  void skip_ws() {
    while (!done() && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (done() || *p != c) return false;
    ++p;
    return true;
  }
};

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Parses a quoted JSON string (cursor on the opening quote), undoing
/// json_escape: standard short escapes plus \u00XX control characters.
/// Non-BMP input never occurs (the emitter only writes \u00XX), but
/// general \uXXXX is decoded to UTF-8 anyway so foreign JSONL parses too.
bool parse_string(Cursor& c, std::string& out) {
  if (!c.consume('"')) return false;
  out.clear();
  while (!c.done()) {
    const char ch = *c.p++;
    if (ch == '"') return true;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.done()) return false;
    const char esc = *c.p++;
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (c.end - c.p < 4) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const int d = hex_digit(*c.p++);
          if (d < 0) return false;
          code = code * 16 + static_cast<unsigned>(d);
        }
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // ran off the line inside the string
}

/// A number / null / bool value, returned as the raw token. Strings are
/// handled separately so field dispatch can keep escapes intact.
bool parse_scalar_token(Cursor& c, std::string& token) {
  c.skip_ws();
  token.clear();
  while (!c.done()) {
    const char ch = c.peek();
    if (ch == ',' || ch == '}' || ch == ' ' || ch == '\t' || ch == '\r') break;
    token += ch;
    ++c.p;
  }
  return !token.empty();
}

bool token_u64(const std::string& token, std::uint64_t& out) {
  if (token.empty() || token[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(token.c_str(), &end, 10);
  // strtoull saturates an out-of-range value to ULLONG_MAX and reports it
  // only through errno; a saturated round or run index is a different
  // record, so reject it like JsonValue::as_u64 does.
  if (errno == ERANGE) return false;
  // Fixed-decimal fields (loss_pct, window_ms) parse up to the '.'; the
  // monitor folds none of them as u64, but reject so a schema drift where
  // an integer field grows a fraction is caught instead of truncated.
  return end == token.c_str() + token.size();
}

}  // namespace

std::optional<ParsedRecord> parse_record(std::string_view line) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.consume('{')) return std::nullopt;

  ParsedRecord rec;
  bool first = true;
  for (;;) {
    c.skip_ws();
    if (c.done()) return std::nullopt;  // line ended before '}'
    if (c.peek() == '}') {
      ++c.p;
      break;
    }
    if (!first && !c.consume(',')) return std::nullopt;
    first = false;

    std::string key;
    if (!parse_string(c, key)) return std::nullopt;
    if (!c.consume(':')) return std::nullopt;

    std::uint64_t* dst = nullptr;
    if (key == "run") dst = &rec.run;
    else if (key == "seed") dst = &rec.seed;
    else if (key == "round") dst = &rec.round;
    else if (key == "injections") dst = &rec.injections;
    else if (key == "duplicates") dst = &rec.duplicates;
    else {
      for (const auto m : analysis::all_manifestations()) {
        if (key == analysis::jsonl_key(m)) {
          dst = &rec.manifestations[m];
          break;
        }
      }
    }

    c.skip_ws();
    if (c.done()) return std::nullopt;
    if (c.peek() == '"') {
      // A string where a folded counter belongs is schema drift, not an
      // ignorable extra — reject the line rather than silently dropping.
      if (dst != nullptr) return std::nullopt;
      std::string value;
      if (!parse_string(c, value)) return std::nullopt;
      if (key == "name") rec.name = std::move(value);
      else if (key == "outcome") rec.outcome = std::move(value);
      else if (key == "medium") rec.medium = std::move(value);
      else if (key == "strategy") rec.strategy = std::move(value);
      // unknown string fields (error, ...) are skipped
      continue;
    }
    std::string token;
    if (!parse_scalar_token(c, token)) return std::nullopt;
    if (dst != nullptr && !token_u64(token, *dst)) return std::nullopt;
    // other numeric fields (sent, loss_pct, wall_ms, null, ...) skipped
  }

  c.skip_ws();
  if (!c.done()) return std::nullopt;  // trailing garbage after '}'
  if (rec.name.empty() || rec.outcome.empty()) return std::nullopt;
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

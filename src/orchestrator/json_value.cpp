#include "orchestrator/json_value.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hsfi::orchestrator {

namespace {

/// Nesting cap: campaign files are ~3 levels deep; 32 keeps a hostile
/// deeply-nested document from exhausting the parser's stack.
constexpr int kMaxDepth = 32;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool done() const noexcept { return pos >= text.size(); }
  [[nodiscard]] char peek() const noexcept { return text[pos]; }

  bool fail(const std::string& what) {
    char where[32];
    std::snprintf(where, sizeof(where), " at byte %zu", pos);
    error = what + where;
    return false;
  }

  void skip_ws() {
    while (!done()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c, const char* what) {
    skip_ws();
    if (done() || peek() != c) return fail(std::string("expected ") + what);
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  static int hex_digit(char c) noexcept {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "'\"'")) return false;
    out.clear();
    while (!done()) {
      const char ch = text[pos++];
      if (ch == '"') return true;
      if (static_cast<unsigned char>(ch) < 0x20) {
        return fail("raw control character in string");
      }
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (done()) break;
      const char esc = text[pos++];
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
          if (text.size() - pos < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int d = hex_digit(text[pos++]);
            if (d < 0) return fail("bad \\u escape");
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
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    if (!done() && peek() == '-') ++pos;
    if (done() || peek() < '0' || peek() > '9') return fail("bad number");
    while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    if (!done() && peek() == '.') {
      ++pos;
      if (done() || peek() < '0' || peek() > '9') return fail("bad fraction");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!done() && (peek() == '+' || peek() == '-')) ++pos;
      if (done() || peek() < '0' || peek() > '9') return fail("bad exponent");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.text = std::string(text.substr(start, pos - start));
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (done()) return fail("unexpected end of document");
    const char c = peek();
    if (c == '{') {
      ++pos;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (!done() && peek() == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        std::string key;
        if (!parse_string(key)) return false;
        for (const auto& [existing, unused] : out.fields) {
          (void)unused;
          if (existing == key) return fail("duplicate key '" + key + "'");
        }
        if (!consume(':', "':'")) return false;
        JsonValue value;
        if (!parse_value(value, depth + 1)) return false;
        out.fields.emplace_back(std::move(key), std::move(value));
        skip_ws();
        if (!done() && peek() == ',') {
          ++pos;
          skip_ws();
          continue;
        }
        return consume('}', "',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (!done() && peek() == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        JsonValue item;
        if (!parse_value(item, depth + 1)) return false;
        out.items.push_back(std::move(item));
        skip_ws();
        if (!done() && peek() == ',') {
          ++pos;
          continue;
        }
        return consume(']', "',' or ']'");
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.text);
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal");
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal");
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal");
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return parse_number(out);
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::as_u64(std::uint64_t& out) const noexcept {
  if (kind != Kind::kNumber || text.empty() || text[0] == '-') return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;  // fraction/exponent: not exact
  }
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return errno != ERANGE && end == text.c_str() + text.size();
}

bool JsonValue::as_double(double& out) const noexcept {
  if (kind != Kind::kNumber) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  Parser p{text, 0, {}};
  JsonValue root;
  if (!p.parse_value(root, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.done()) {
    p.fail("trailing garbage after document");
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  return root;
}

}  // namespace hsfi::orchestrator

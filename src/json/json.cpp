#include "json/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

namespace dv::json {

// ---------------------------------------------------------------- Object

Value& Object::operator[](const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  items_.emplace_back(key, Value());
  return items_.back().second;
}

const Value* Object::find(const std::string& key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Object::at(const std::string& key) const {
  const Value* v = find(key);
  if (!v) throw Error("json object has no key '" + key + "'");
  return *v;
}

// ---------------------------------------------------------------- Value

bool Value::as_bool() const {
  DV_REQUIRE(is_bool(), "json value is not a bool");
  return bool_;
}

double Value::as_number() const {
  DV_REQUIRE(is_number(), "json value is not a number");
  return num_;
}

std::int64_t Value::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Value::as_string() const {
  DV_REQUIRE(is_string(), "json value is not a string");
  return str_;
}

const Array& Value::as_array() const {
  DV_REQUIRE(is_array(), "json value is not an array");
  return arr_;
}

const Object& Value::as_object() const {
  DV_REQUIRE(is_object(), "json value is not an object");
  return obj_;
}

Object& Value::as_object() {
  DV_REQUIRE(is_object(), "json value is not an object");
  return obj_;
}

const Value& Value::at(const std::string& key) const {
  return as_object().at(key);
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  return obj_.find(key);
}

double Value::get_number(const std::string& key, double dflt) const {
  const Value* v = find(key);
  return v && v->is_number() ? v->as_number() : dflt;
}

std::string Value::get_string(const std::string& key,
                              const std::string& dflt) const {
  const Value* v = find(key);
  return v && v->is_string() ? v->as_string() : dflt;
}

bool Value::get_bool(const std::string& key, bool dflt) const {
  const Value* v = find(key);
  return v && v->is_bool() ? v->as_bool() : dflt;
}

// ---------------------------------------------------------------- Parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_value() {
    skip_ws();
    if (eof()) throw err("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string('"'));
      case '\'': return Value(parse_string('\''));
      default:
        if (c == '-' || c == '+' || std::isdigit(static_cast<unsigned char>(c)))
          return parse_number();
        return parse_word();
    }
  }

  void skip_ws() {
    for (;;) {
      while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
      if (pos_ + 1 < s_.size() && s_[pos_] == '/' && s_[pos_ + 1] == '/') {
        while (!eof() && peek() != '\n') ++pos_;
        continue;
      }
      if (pos_ + 1 < s_.size() && s_[pos_] == '/' && s_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < s_.size() &&
               !(s_[pos_] == '*' && s_[pos_ + 1] == '/'))
          ++pos_;
        if (pos_ + 1 >= s_.size()) throw err("unterminated block comment");
        pos_ += 2;
        continue;
      }
      break;
    }
  }

  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  std::size_t pos() const { return pos_; }
  bool consume(char c) {
    if (!eof() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Error err(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
      if (s_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Error("json parse error at line " + std::to_string(line) +
                 ", column " + std::to_string(col) + ": " + msg);
  }

 private:
  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    for (;;) {
      skip_ws();
      std::string key = parse_key();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      if (consume(',')) {
        skip_ws();
        if (consume('}')) return Value(std::move(obj));  // trailing comma
        continue;
      }
      expect('}');
      return Value(std::move(obj));
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) {
        skip_ws();
        if (consume(']')) return Value(std::move(arr));  // trailing comma
        continue;
      }
      expect(']');
      return Value(std::move(arr));
    }
  }

  std::string parse_key() {
    if (eof()) throw err("expected object key");
    if (peek() == '"' || peek() == '\'') return parse_string(peek());
    // Relaxed dialect: bare identifier key.
    std::string key;
    while (!eof() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                      peek() == '_' || peek() == '$')) {
      key.push_back(s_[pos_++]);
    }
    if (key.empty()) throw err("expected object key");
    return key;
  }

  std::string parse_string(char quote) {
    expect(quote);
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or backslash in one append.
      const std::size_t run = pos_;
      while (!eof() && peek() != quote && peek() != '\\') ++pos_;
      out.append(s_, run, pos_ - run);
      if (eof()) throw err("unterminated string");
      char c = s_[pos_++];
      if (c == quote) return out;
      if (eof()) throw err("unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case '/': out.push_back('/'); break;
        case '\\': out.push_back('\\'); break;
        case '"': out.push_back('"'); break;
        case '\'': out.push_back('\''); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) throw err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else throw err("invalid \\u escape");
          }
          // Encode as UTF-8 (basic multilingual plane only).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          throw err(std::string("invalid escape \\") + c);
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-' || peek() == '+') ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      ((peek() == '-' || peek() == '+') &&
                       (s_[pos_ - 1] == 'e' || s_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') throw err("invalid number: " + tok);
    return Value(v);
  }

  Value parse_word() {
    std::string word;
    while (!eof() && std::isalpha(static_cast<unsigned char>(peek()))) {
      word.push_back(s_[pos_++]);
    }
    if (word == "true") return Value(true);
    if (word == "false") return Value(false);
    if (word == "null") return Value(nullptr);
    throw err("unexpected token '" + word + "'");
  }

  void expect(char c) {
    skip_ws();
    if (eof() || peek() != c) {
      throw err(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) {
  Parser p(text);
  Value v = p.parse_value();
  p.skip_ws();
  if (!p.eof()) throw p.err("trailing content after json value");
  return v;
}

Value parse_script(const std::string& text) {
  Parser p(text);
  Array items;
  items.push_back(p.parse_value());
  p.skip_ws();
  while (!p.eof()) {
    if (!p.consume(',')) throw p.err("expected ',' between script entries");
    p.skip_ws();
    if (p.eof()) break;  // trailing comma
    items.push_back(p.parse_value());
    p.skip_ws();
  }
  if (items.size() == 1 && items[0].is_array()) return items[0];
  return Value(std::move(items));
}

// ---------------------------------------------------------------- Writer

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  // Bytes that need no escape are copied a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        static constexpr char kDigits[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kDigits[c >> 4],
                            kDigits[c & 0xf]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s, run);
  out += '"';
}

void dump_number(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // JSON has no NaN/inf
    return;
  }
  char buf[32];
  // Integral values print as integers; the rest round-trip as "%.17g"
  // (to_chars is specified as printf in the C locale).
  const auto res =
      d == std::floor(d) && std::fabs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void dump_impl(std::string& out, const Value& v, int indent, int depth) {
  auto newline = [&](int d) {
    if (indent >= 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (v.type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Type::Number: dump_number(out, v.as_number()); break;
    case Type::String: dump_string(out, v.as_string()); break;
    case Type::Array: {
      const auto& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        dump_impl(out, arr[i], indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      const auto& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, val] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        dump_string(out, k);
        out += indent >= 0 ? ": " : ":";
        dump_impl(out, val, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& v, int indent) {
  std::string out;
  dump_impl(out, v, indent, 0);
  return out;
}

}  // namespace dv::json

#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl {

namespace {
// Target of the non-owning payload of null and bool values.
constexpr char kScalarSentinel = 0;
}  // namespace

std::shared_ptr<void> JsonValue::sentinel_payload() noexcept {
  // Aliasing an empty owner: non-null get(), no control block.
  return std::shared_ptr<void>(std::shared_ptr<void>(),
                               const_cast<char*>(&kScalarSentinel));
}

JsonValue::JsonValue(JsonValue&& other) noexcept
    : scalar_(other.scalar_), payload_(std::move(other.payload_)) {
  other.scalar_.tag = {Type::kNull, false};
  other.payload_ = sentinel_payload();
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  if (this != &other) {
    scalar_ = other.scalar_;
    payload_ = std::move(other.payload_);
    other.scalar_.tag = {Type::kNull, false};
    other.payload_ = sentinel_payload();
  }
  return *this;
}

JsonValue::JsonValue(bool b) : scalar_{.tag = {Type::kBool, b}} {}
JsonValue::JsonValue(double n) : scalar_{.number = n}, payload_() {}
JsonValue::JsonValue(std::string s)
    : scalar_{.tag = {Type::kString, false}},
      payload_(std::make_shared<std::string>(std::move(s))) {}
JsonValue::JsonValue(Array a)
    : scalar_{.tag = {Type::kArray, false}},
      payload_(std::make_shared<Array>(std::move(a))) {}
JsonValue::JsonValue(Object o)
    : scalar_{.tag = {Type::kObject, false}},
      payload_(std::make_shared<Object>(std::move(o))) {}

bool JsonValue::as_bool() const {
  require(is_bool(), "JsonValue: not a bool");
  return scalar_.tag.flag;
}

double JsonValue::as_number() const {
  require(is_number(), "JsonValue: not a number");
  return scalar_.number;
}

const std::string& JsonValue::as_string() const {
  require(is_string(), "JsonValue: not a string");
  return *static_cast<const std::string*>(payload_.get());
}

const JsonValue::Array& JsonValue::as_array() const {
  require(is_array(), "JsonValue: not an array");
  return *static_cast<const Array*>(payload_.get());
}

const JsonValue::Object& JsonValue::as_object() const {
  require(is_object(), "JsonValue: not an object");
  return *static_cast<const Object*>(payload_.get());
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = get(key);
  if (value == nullptr) {
    throw InvalidArgument("JsonValue: missing key '" + key + "'");
  }
  return *value;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& object = *static_cast<const Object*>(payload_.get());
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* value = get(key);
  return value ? value->as_number() : fallback;
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* value = get(key);
  return value ? value->as_bool() : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 std::string fallback) const {
  const JsonValue* value = get(key);
  return value ? value->as_string() : std::move(fallback);
}

std::vector<double> JsonValue::number_array(const std::string& key) const {
  std::vector<double> out;
  for (const JsonValue& item : at(key).as_array()) {
    out.push_back(item.as_number());
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  // Every error goes through here, so the scan for the line and column
  // runs once, on the throw path, instead of on every check.
  [[noreturn]] void fail_at(std::size_t at, const std::string& what) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < at && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw InvalidArgument(
        format("json: %s at %zu:%zu", what.c_str(), line, column));
  }

  [[noreturn]] void fail(const std::string& what) const { fail_at(pos_, what); }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  // A missing token is reported where the parser stood before skipping
  // the whitespace in front of it.
  void expect(char c) {
    const std::size_t at = pos_;
    if (peek() != c) fail_at(at, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool try_consume(char c) {
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) {
      fail("invalid literal");
    }
    pos_ += literal.size();
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{':
      case '[':
        return parse_container();
      case '"':
        return JsonValue(parse_string());
      case 't':
        expect_literal("true");
        return JsonValue(true);
      case 'f':
        expect_literal("false");
        return JsonValue(false);
      case 'n':
        expect_literal("null");
        return JsonValue();
      default:
        return parse_number();
    }
  }

  JsonValue parse_container() {
    if (depth_ == kJsonMaxDepth) {
      fail(format("nesting deeper than %zu", kJsonMaxDepth));
    }
    ++depth_;
    JsonValue value = text_[pos_] == '{' ? parse_object() : parse_array();
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    if (try_consume('}')) return JsonValue(std::move(object));
    while (true) {
      const std::size_t at = pos_;
      if (peek() != '"') fail_at(at, "expected object key");
      std::string key = parse_string();
      expect(':');
      // Writers emit sorted keys, so the end() hint makes each insert
      // O(1); a repeated key overwrites (last key wins).
      object.insert_or_assign(object.end(), std::move(key), parse_value());
      if (try_consume('}')) break;
      expect(',');
    }
    return JsonValue(std::move(object));
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    if (try_consume(']')) return JsonValue(std::move(array));
    while (true) {
      array.push_back(parse_value());
      if (try_consume(']')) break;
      expect(',');
    }
    return JsonValue(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode (BMP only).
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
          fail("invalid escape");
      }
    }
    return out;
  }

  // The token is the longest run of number characters; it is valid when
  // strtod consumes exactly that run (which admits a leading '+', as it
  // always has) and the value is finite.
  JsonValue parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::size_t length = pos_ - start;
    char* end = nullptr;
    double value = std::strtod(text_.c_str() + start, &end);
    bool whole = end == text_.c_str() + pos_;
    if (end > text_.c_str() + pos_) {
      // strtod read on past the token ("0x1p3", "-inf"); judge the
      // token by itself.
      const std::string token = text_.substr(start, length);
      value = std::strtod(token.c_str(), &end);
      whole = end == token.c_str() + length;
    }
    if (!whole || !std::isfinite(value)) {
      fail("malformed number '" + text_.substr(start, length) + "'");
    }
    return JsonValue(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "parse_json_file: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

namespace {

void append_escaped(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(double value, std::string& out) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no inf/nan spelling
    return;
  }
  // The bytes are those of "%.*g" at the smallest precision that parses
  // back to the same double. No precision below the digit count of the
  // shortest round-trip scientific form can round-trip, so the search
  // starts there and nearly always stops at once (17 digits always
  // round-trip). The plain (non-scientific) shortest form is no such
  // bound: it pads large integers with zeros that are not significant.
  char buffer[32];
  char* const last = buffer + sizeof(buffer);
  std::to_chars_result printed =
      std::to_chars(buffer, last, value, std::chars_format::scientific);
  int precision = 0;
  for (const char* c = buffer; c != printed.ptr && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (;; ++precision) {
    printed = std::to_chars(buffer, last, value, std::chars_format::general,
                            precision);
    double parsed = 0.0;
    const std::from_chars_result back =
        std::from_chars(buffer, printed.ptr, parsed);
    if (precision >= 17 || (back.ec == std::errc() && parsed == value)) break;
  }
  out.append(buffer, printed.ptr);
}

void dump_value(const JsonValue& value, int indent, int depth,
                std::string& out) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int level) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (value.type()) {
    case JsonValue::Type::kNull: out += "null"; break;
    case JsonValue::Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case JsonValue::Type::kNumber: append_number(value.as_number(), out); break;
    case JsonValue::Type::kString: append_escaped(value.as_string(), out); break;
    case JsonValue::Type::kArray: {
      const auto& array = value.as_array();
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        dump_value(array[i], indent, depth + 1, out);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      const auto& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : object) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        append_escaped(key, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_value(member, indent, depth + 1, out);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string dump_json(const JsonValue& value, int indent) {
  std::string out;
  dump_value(value, indent, 0, out);
  return out;
}

void write_json_file(const std::string& path, const JsonValue& value,
                     int indent) {
  std::ofstream out(path);
  require(out.good(), "write_json_file: cannot open '" + path + "'");
  out << dump_json(value, indent) << '\n';
  require(out.good(), "write_json_file: write to '" + path + "' failed");
}

}  // namespace gridctl

// Minimal JSON parser (RFC 8259 subset) for scenario configuration
// files, runtime checkpoints and reports. Recursive descent,
// value-semantic tree, precise error positions. Supported: objects,
// arrays, strings (with \uXXXX for the BMP), numbers (as double),
// true/false/null. Not supported: surrogate pairs, duplicate-key
// detection (last key wins).
//
// Cost: parsing and writing are linear in the text. The line:column of
// a parse error is computed only when the error is thrown. Nesting is
// capped at kJsonMaxDepth arrays/objects so hostile input ends in
// InvalidArgument instead of a stack overflow. A JsonValue is a 24-byte
// node (one per number of a checkpoint); strings, arrays and objects
// live behind one shared, immutable payload.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gridctl {

// Deepest nest of arrays/objects parse_json accepts (real documents
// nest fewer than 10 levels).
inline constexpr std::size_t kJsonMaxDepth = 512;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;                      // null
  JsonValue(const JsonValue&) = default;
  JsonValue& operator=(const JsonValue&) = default;
  // A moved-from value is null.
  JsonValue(JsonValue&& other) noexcept;
  JsonValue& operator=(JsonValue&& other) noexcept;
  explicit JsonValue(bool b);
  explicit JsonValue(double n);
  explicit JsonValue(std::string s);
  explicit JsonValue(Array a);
  explicit JsonValue(Object o);

  Type type() const { return payload_ ? scalar_.tag.type : Type::kNumber; }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return !payload_; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors; throw InvalidArgument on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // Object lookup. `at` throws when absent; `get` returns nullptr.
  const JsonValue& at(const std::string& key) const;
  const JsonValue* get(const std::string& key) const;
  bool has(const std::string& key) const { return get(key) != nullptr; }

  // Convenience with defaults for scalar config fields.
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

  // Array of numbers shortcut.
  std::vector<double> number_array(const std::string& key) const;

 private:
  // Numbers keep their value in `scalar_.number` and an empty
  // `payload_`. Every other type keeps its tag (and a bool its value)
  // in `scalar_.tag` and a non-empty `payload_`: the std::string, Array
  // or Object it shares, or for null and bool a non-owning pointer to
  // a static sentinel (no control block, so copying it costs no
  // reference count).
  struct Tag {
    Type type;
    bool flag;
  };
  union Scalar {
    double number;
    Tag tag;
  };
  static std::shared_ptr<void> sentinel_payload() noexcept;

  Scalar scalar_{.tag = {Type::kNull, false}};
  std::shared_ptr<void> payload_ = sentinel_payload();
};

// Parse a complete JSON document; throws InvalidArgument with
// line:column on malformed input, trailing garbage or nesting deeper
// than kJsonMaxDepth.
JsonValue parse_json(const std::string& text);
JsonValue parse_json_file(const std::string& path);

// Serialize a value tree back to JSON text. Numbers are printed with the
// shortest representation that round-trips through `parse_json`
// (integers without a fraction part); non-finite numbers have no JSON
// spelling and are emitted as null. `indent < 0` gives compact one-line
// output, otherwise nested values are pretty-printed with `indent`
// spaces per level.
std::string dump_json(const JsonValue& value, int indent = -1);
void write_json_file(const std::string& path, const JsonValue& value,
                     int indent = 2);

}  // namespace gridctl

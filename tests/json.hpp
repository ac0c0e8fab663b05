// Minimal JSON value + recursive-descent parser.
//
// Exists so tests can *round-trip* the JSON this repo emits
// (Chrome trace-event files, metrics, span/contention exports)
// instead of grepping for substrings: parse the document back, then
// assert structure on the value tree. Scope is deliberately small —
// full JSON input, no comments, no trailing commas, numbers surfaced
// as both double and int64 views. Not a serializer; emitters keep
// building their strings by hand so the output format stays obvious.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rg::test {

class JsonValue;
using JsonPtr = std::shared_ptr<JsonValue>;

/// One parsed JSON value. Objects preserve lookup by key (std::map,
/// deterministic iteration) plus the original insertion order in
/// `keys` for tests that care about emission order.
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;  // number truncated; exact for integral input
  bool is_integer = false;   // true when the literal had no '.', 'e', 'E'
  std::string string;
  std::vector<JsonPtr> items;              // Array
  std::map<std::string, JsonPtr> members;  // Object
  std::vector<std::string> keys;           // Object: insertion order

  bool is_null() const { return type == Type::Null; }
  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_string() const { return type == Type::String; }
  bool is_number() const { return type == Type::Number; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
  /// Array element; nullptr when out of range or not an array.
  const JsonValue* at(std::size_t index) const;
  std::size_t size() const {
    return type == Type::Array ? items.size() : members.size();
  }
};

/// Parse result: `value` is null on failure and `error` then holds a
/// one-line description with the byte offset where parsing stopped.
struct JsonParseResult {
  JsonPtr value;
  std::string error;
  bool ok() const { return value != nullptr; }
};

/// Parses one complete JSON document. Trailing whitespace is allowed;
/// any other trailing content is an error (catches truncated writes).
JsonParseResult json_parse(std::string_view text);

}  // namespace rg::test

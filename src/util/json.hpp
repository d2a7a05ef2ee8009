// Minimal JSON reader for declarative experiment specs.
//
// Self-contained recursive-descent parser (the container bakes no
// third-party JSON dependency) covering the full RFC 8259 value
// grammar: objects, arrays, strings with escapes (\uXXXX for the
// basic multilingual plane), numbers, booleans, null. Errors throw
// std::invalid_argument with the 1-based line:column of the offending
// character. Arrays and objects nest at most kMaxDepth levels, so a
// crafted input fails with a named error instead of overflowing the
// parser's stack.
//
// The accessor API is geared toward config parsing: typed as_*()
// getters throw on type mismatch naming the expected and actual type,
// object lookups throw naming the missing key, and keys() exposes the
// member list so callers can reject unknown fields (typo detection in
// user-authored specs).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xlf {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  static const char* to_string(Type type);

  // Parses exactly one JSON document; trailing non-whitespace is an
  // error.
  static JsonValue parse(const std::string& text);

  // Deepest array/object nesting parse() accepts (the shipped specs
  // nest 3 levels).
  static constexpr int kMaxDepth = 64;

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  // Typed accessors; throw std::invalid_argument on mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;       // array
  const std::map<std::string, JsonValue>& members() const;  // object

  // Object conveniences.
  bool has(const std::string& key) const;
  // Member lookup; throws naming the key when absent.
  const JsonValue& at(const std::string& key) const;
  std::vector<std::string> keys() const;

 private:
  friend class JsonParser;

  void require(Type type) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

}  // namespace xlf

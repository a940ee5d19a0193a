#pragma once
// Minimal strict JSON parser for code that must *read* JSON (`pipeline`:
// the ledgers `--compare` reads and the profile trees of traced runs; and
// the tests) without growing a dependency. Strict by design: objects keep
// insertion order, duplicate keys are rejected, numbers are doubles without
// leading zeros, nesting is bounded (512 levels), and any syntax error
// throws std::runtime_error naming the byte offset. Not a general-purpose
// library — no DOM mutation, no serialization (the obs layer renders its
// own JSON by hand).

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsvcod::obs::json {

struct Value {
  enum class Type { null, boolean, number, string, array, object };

  Type type = Type::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_boolean() const { return type == Type::boolean; }
  bool is_number() const { return type == Type::number; }
  bool is_string() const { return type == Type::string; }
  bool is_array() const { return type == Type::array; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parse a complete document (one value + optional trailing whitespace).
/// Throws std::runtime_error with a byte offset on malformed input.
Value parse(std::string_view text);

}  // namespace tsvcod::obs::json

#ifndef HBOLD_COMMON_JSON_H_
#define HBOLD_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hbold {

/// A JSON value: null, bool, number (double), string, array, or object.
///
/// This is the document representation used by the embedded document store
/// (our MongoDB substitute) and by the export layer. A value is one
/// std::variant, so it holds only the alternative it is. An object is a
/// flat vector of (key, value) pairs kept sorted by key with unique keys:
/// Find is a binary search that allocates nothing, and serialization walks
/// the keys in sorted order, so it is deterministic.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Sorted by key, keys unique. Every constructor and mutator keeps it so.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(runtime/explicit)
  Json(bool b) : value_(b) {}  // NOLINT
  Json(double d) : value_(d) {}  // NOLINT
  Json(int i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(uint64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT
  Json(std::string s) : value_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : value_(std::string(s)) {}  // NOLINT
  Json(Array a) : value_(std::move(a)) {}  // NOLINT
  /// Sorts `o` by key; with duplicate keys the last one wins.
  Json(Object o);  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Accessors. Called on the wrong type they return false, 0 or an empty
  /// string/array/object. Use the typed Get* helpers for keyed access.
  bool as_bool() const;
  double as_number() const;
  int64_t as_int() const { return static_cast<int64_t>(as_number()); }
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field access. Returns nullptr if not an object or key missing.
  const Json* Find(std::string_view key) const;

  /// Object field access with defaults (convenience for store documents).
  std::string GetString(std::string_view key,
                        std::string default_value = "") const;
  double GetNumber(std::string_view key, double default_value = 0) const;
  int64_t GetInt(std::string_view key, int64_t default_value = 0) const;
  bool GetBool(std::string_view key, bool default_value = false) const;

  /// Sets a field on an object; a value that is not an object becomes an
  /// empty one first. Appends when `key` sorts after every existing key,
  /// otherwise inserts or overwrites in place.
  Json& Set(std::string key, Json value);

  /// Appends to an array; a value that is not an array becomes an empty
  /// one first.
  Json& Append(Json value);

  /// Serializes to compact JSON. `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;
  /// Appends the serialization to `out` (same bytes as Dump).
  void DumpTo(std::string* out, int indent = 0) const;

  /// Parses a JSON document. Supports the full JSON grammar with
  /// \uXXXX escapes (BMP only; surrogate pairs combined). Within an object
  /// a repeated key keeps its last value.
  static Result<Json> Parse(std::string_view text);

  /// Deep structural equality.
  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

 private:
  void DumpAt(std::string* out, int indent, int depth) const;

  // Alternative order matches Type.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace hbold

#endif  // HBOLD_COMMON_JSON_H_

// Minimal JSON value type with a writer and a strict parser.
//
// The campaign subsystem records every experiment as one JSON object per
// line (JSON Lines); downstream tooling (plots, regression dashboards)
// consumes those files, and the resume logic re-reads them.  The type is
// deliberately small: null/bool/number/string/array/object, objects keep
// insertion order so emitted records are stable and diffable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pbw::util {

/// Thrown by Json::parse on malformed input.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  ///< null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(long v) : Json(static_cast<double>(v)) {}
  Json(long long v) : Json(static_cast<double>(v)) {}
  Json(unsigned v) : Json(static_cast<double>(v)) {}
  Json(unsigned long v) : Json(static_cast<double>(v)) {}
  Json(unsigned long long v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// The number as an integer in [0, 2^64).  Throws JsonError when it is
  /// not a number, or is negative, fractional, or 2^64 or more.  The read
  /// for every integer that arrives from outside the process, where
  /// as_int()'s plain conversion of 1e300 or 1.5 would be undefined or
  /// silently truncated.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access.  push_back requires (or converts a null into) an array.
  Json& push_back(Json v);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t i) const;

  /// Object access.  operator[] inserts a null member on first use and
  /// requires (or converts a null into) an object; get() returns nullptr
  /// when the key is absent.
  Json& operator[](const std::string& key);
  [[nodiscard]] const Json* get(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const;

  /// Compact single-line serialization (objects keep insertion order).
  [[nodiscard]] std::string dump() const;

  /// Deepest array/object nesting parse() accepts.  The parser recurses
  /// once per level, so without a bound a body of nested brackets would
  /// overflow the stack instead of failing.
  static constexpr std::size_t kMaxDepth = 256;

  /// Strict parse of exactly one JSON document (trailing whitespace ok).
  /// Throws JsonError on malformed input or nesting deeper than kMaxDepth.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace pbw::util

// Dependency-free JSON with a relaxed dialect for projection-view scripts.
//
// The paper (Fig. 5) specifies projection views with key-value scripts that
// use unquoted keys and trailing commas; parse() accepts strict JSON plus
// that relaxed dialect (unquoted identifier keys, single-quoted strings,
// trailing commas, // and /* */ comments). parse_script() additionally
// accepts a comma-separated sequence of top-level objects, which is how the
// scripts in the paper are written.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace dv::json {

class Value;
using Array = std::vector<Value>;

/// Object preserving insertion order (deterministic serialization).
class Object {
 public:
  Value& operator[](const std::string& key);           // inserts if missing
  const Value& at(const std::string& key) const;       // throws if missing
  const Value* find(const std::string& key) const;     // nullptr if missing
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  bool operator==(const Object&) const = default;

 private:
  std::vector<std::pair<std::string, Value>> items_;
};

enum class Type { Null, Bool, Number, String, Array, Object };

/// A JSON value (tagged union with value semantics).
class Value {
 public:
  Value() : type_(Type::Null) {}
  Value(std::nullptr_t) : type_(Type::Null) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(double d) : type_(Type::Number), num_(d) {}
  Value(int i) : type_(Type::Number), num_(i) {}
  Value(unsigned int i) : type_(Type::Number), num_(i) {}
  Value(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Value(std::size_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Value(const char* s) : type_(Type::String), str_(s) {}
  Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Value(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Value(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; throws when not an object / key missing.
  const Value& at(const std::string& key) const;
  /// Optional lookups with defaults.
  double get_number(const std::string& key, double dflt) const;
  std::string get_string(const std::string& key,
                         const std::string& dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;
  const Value* find(const std::string& key) const;

  bool operator==(const Value&) const = default;

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parses strict or relaxed JSON (see header comment). Throws dv::Error.
Value parse(const std::string& text);

/// Parses a projection-view script: either a single value, or a
/// comma-separated sequence of objects, returned as an Array.
Value parse_script(const std::string& text);

/// Serializes; indent < 0 means compact.
std::string dump(const Value& v, int indent = -1);

}  // namespace dv::json

#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pbw::util {

namespace {

void type_error(const char* want) {
  throw JsonError(std::string("Json: value is not a ") + want);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) type_error("number");
  return num_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::kNumber) type_error("number");
  return static_cast<std::int64_t>(num_);
}

std::uint64_t Json::as_u64() const {
  const double v = as_double();
  // 2^64 is exactly representable; every double below it and >= 0 that
  // is integral converts without loss.
  if (!(v >= 0.0) || v >= 18446744073709551616.0 || v != std::floor(v)) {
    throw JsonError("Json: value is not an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string");
  return str_;
}

Json& Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array");
  arr_.push_back(std::move(v));
  return arr_.back();
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return arr_.size();
    case Type::kObject:
      return obj_.size();
    default:
      type_error("container");
  }
  return 0;
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray) type_error("array");
  if (i >= arr_.size()) throw JsonError("Json: array index out of range");
  return arr_[i];
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object");
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(key, Json());
  return obj_.back().second;
}

const Json* Json::get(std::string_view key) const {
  if (type_ != Type::kObject) type_error("object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) type_error("object");
  return obj_;
}

// ---- writer ---------------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double v, std::string& out) {
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN; null is the conventional substitute.
    out += "null";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      dump_number(num_, out);
      break;
    case Type::kString:
      dump_string(str_, out);
      break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        out += arr_[i].dump();
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        dump_string(obj_[i].first, out);
        out += ':';
        out += obj_[i].second.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

// ---- parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("Json::parse at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > Json::kMaxDepth) {
          fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
        }
        Json v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // campaign records only ever escape control characters).
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
        default:
          fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == begin) fail("expected a value");
    double value = 0.0;
    const auto* first = text_.data() + begin;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) fail("malformed number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects open around pos_
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace pbw::util

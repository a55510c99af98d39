// The one JSON writer in the tree: every JSON emitter renders through it,
// and every stats type has one `to_json(JsonWriter&, const T&)` next to its
// definition. The writer places the commas. Doubles print as %.17g, which
// round-trips bit-exactly (null when not finite, which JSON cannot spell);
// integers as %llu / %lld. Strings are escaped so any byte string (file
// names included) is a valid JSON string: quotes and backslashes get a
// backslash, \n and \t keep their short forms, other control characters
// become \u00XX.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>

namespace nfp::sim {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open("{"); }
  JsonWriter& end_object() { return close("}"); }
  JsonWriter& begin_array() { return open("["); }
  JsonWriter& end_array() { return close("]"); }
  JsonWriter& key(std::string_view k) {
    value(k).out_ += ':';
    comma_ = false;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    open("\"");
    for (const char ch : s) {
      switch (ch) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) >= 0x20) {
            out_ += ch;
          } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out_ += buf;
          }
      }
    }
    return close("\"");
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return literal(b ? "true" : "false"); }
  JsonWriter& value(double d) {
    return std::isfinite(d) ? number("%.17g", d) : null();
  }
  template <std::signed_integral T>
  JsonWriter& value(T n) { return number("%lld", static_cast<long long>(n)); }
  template <std::unsigned_integral T>
  JsonWriter& value(T n) {
    return number("%llu", static_cast<unsigned long long>(n));
  }
  JsonWriter& null() { return literal("null"); }

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  // A value or an opening bracket takes a comma first, unless it follows
  // an opening bracket or a key.
  JsonWriter& open(std::string_view text) {
    if (comma_) out_ += ',';
    out_ += text;
    comma_ = false;
    return *this;
  }
  JsonWriter& close(std::string_view text) {
    out_ += text;
    comma_ = true;
    return *this;
  }
  JsonWriter& literal(std::string_view text) { return open({}).close(text); }
  template <typename T>
  JsonWriter& number(const char* fmt, T x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, fmt, x);
    return literal(buf);
  }

  std::string out_;
  bool comma_ = false;
};

}  // namespace nfp::sim

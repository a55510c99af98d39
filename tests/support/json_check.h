// Test helpers for the JSON writer (sim/json.h): render one stats value on
// its own, and a minimal well-formedness check.
#pragma once

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>

#include "sim/json.h"

namespace nfp::test {

// The text `to_json(w, x)` writes into a fresh writer.
template <typename T>
std::string to_json_string(const T& x) {
  sim::JsonWriter w;
  to_json(w, x);
  return w.str();
}

// Minimal JSON well-formedness check: RFC 8259 structure, strings and
// literals; numbers are checked with strtod, which is laxer than JSON.
// Parses one value starting at s[i] and advances i past it.
inline bool json_value(const std::string& s, std::size_t& i);

inline void json_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
    ++i;
  }
}

inline bool json_string(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') return false;
  for (++i; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c == '"') {
      ++i;
      return true;
    }
    if (c < 0x20) return false;
    if (c != '\\') continue;
    if (++i >= s.size()) return false;
    if (s[i] == 'u') {
      for (int k = 0; k < 4; ++k) {
        if (++i >= s.size() ||
            !std::isxdigit(static_cast<unsigned char>(s[i]))) {
          return false;
        }
      }
    } else if (std::string_view("\"\\/bfnrt").find(s[i]) ==
               std::string_view::npos) {
      return false;
    }
  }
  return false;
}

template <typename Item>
inline bool json_list(const std::string& s, std::size_t& i, char close,
                      Item item) {
  ++i;  // opening bracket
  json_ws(s, i);
  if (i < s.size() && s[i] == close) {
    ++i;
    return true;
  }
  while (true) {
    json_ws(s, i);
    if (!item()) return false;
    json_ws(s, i);
    if (i >= s.size()) return false;
    const char sep = s[i++];
    if (sep == close) return true;
    if (sep != ',') return false;
  }
}

inline bool json_value(const std::string& s, std::size_t& i) {
  json_ws(s, i);
  if (i >= s.size()) return false;
  switch (s[i]) {
    case '{':
      return json_list(s, i, '}', [&] {
        if (!json_string(s, i)) return false;
        json_ws(s, i);
        return i < s.size() && s[i++] == ':' && json_value(s, i);
      });
    case '[':
      return json_list(s, i, ']', [&] { return json_value(s, i); });
    case '"':
      return json_string(s, i);
    default:
      break;
  }
  for (const std::string_view lit : {"true", "false", "null"}) {
    if (s.compare(i, lit.size(), lit) == 0) {
      i += lit.size();
      return true;
    }
  }
  const std::size_t start = i;
  while (i < s.size() &&
         std::string_view("+-.eE0123456789").find(s[i]) !=
             std::string_view::npos) {
    ++i;
  }
  if (i == start) return false;
  const std::string num = s.substr(start, i - start);
  char* end = nullptr;
  std::strtod(num.c_str(), &end);
  return end == num.c_str() + num.size();
}

inline bool json_parses(const std::string& s) {
  std::size_t i = 0;
  if (!json_value(s, i)) return false;
  json_ws(s, i);
  return i == s.size();
}

}  // namespace nfp::test

// JSON string escaping shared by every JSON writer in the tree (service
// JSON lines, the static analyzers' --json objects, nfplint).
//
// Quotes and backslashes are backslash-escaped, \n and \t keep their short
// forms, and every other control character becomes \u00XX, so any byte
// string (file names included) yields a valid JSON string body.
#pragma once

#include <cstdio>
#include <string>

namespace nfp {

// Appends `s` to `out` as the body of a JSON string (no surrounding quotes).
inline void append_escaped(std::string& out, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

}  // namespace nfp

// Small shared helpers for the nfp* command-line tools.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/executor.h"

namespace nfp::cli {

// Shared --dispatch value parsing (nfpc, nfpfuzz). Exits with a usage error
// on anything but step/block/jit.
inline sim::Dispatch parse_dispatch(const std::string& value,
                                    const char* tool) {
  if (value == "step") return sim::Dispatch::kStep;
  if (value == "block") return sim::Dispatch::kBlock;
  if (value == "jit") return sim::Dispatch::kJit;
  std::fprintf(stderr,
               "%s: unknown dispatch mode '%s' "
               "(expected step, block, or jit)\n",
               tool, value.c_str());
  std::exit(2);
}

inline const char* dispatch_name(sim::Dispatch dispatch) {
  switch (dispatch) {
    case sim::Dispatch::kStep: return "step";
    case sim::Dispatch::kBlock: return "block";
    case sim::Dispatch::kJit: return "jit";
  }
  return "?";
}

// Degrades a requested dispatch mode to what the host can actually run:
// --dispatch=jit on a host without executable-page support (or a build with
// the backend compiled out) falls back to kBlock, warning once on stderr.
inline sim::Dispatch effective_dispatch(sim::Dispatch requested,
                                        const char* tool) {
  if (requested == sim::Dispatch::kJit && !sim::jit_available()) {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "%s: warning: jit dispatch unavailable on this host; "
                   "falling back to block\n",
                   tool);
    }
    return sim::Dispatch::kBlock;
  }
  return requested;
}

// Result of matching one argv slot against a value-taking flag.
enum class FlagMatch {
  kNoMatch,       // argv[i] is not this flag
  kMatched,       // value produced (i advanced for the two-token form)
  kMissingValue,  // "--name" at end of argv, or empty "--name="
};

// Pure core of flag_value, shared with the tests: accepts "--name value" and
// "--name=value". An empty inline value ("--name=") is a usage error, not an
// empty string — every flag in these tools takes a non-empty operand.
inline FlagMatch match_flag_value(const std::string& name, int argc,
                                  char** argv, int& i, const char** value) {
  const std::string arg = argv[i];
  if (arg == name) {
    if (i + 1 >= argc) return FlagMatch::kMissingValue;
    *value = argv[++i];
    return FlagMatch::kMatched;
  }
  if (arg.rfind(name + "=", 0) == 0) {
    *value = argv[i] + name.size() + 1;
    return **value == '\0' ? FlagMatch::kMissingValue : FlagMatch::kMatched;
  }
  return FlagMatch::kNoMatch;
}

// Accepts "--name=value" or "--name value"; returns nullptr if argv[i] is
// not this flag, and exits with a usage error if the value is missing.
inline const char* flag_value(const std::string& name, int argc, char** argv,
                              int& i, const char* tool) {
  const char* value = nullptr;
  switch (match_flag_value(name, argc, argv, i, &value)) {
    case FlagMatch::kNoMatch: return nullptr;
    case FlagMatch::kMatched: return value;
    case FlagMatch::kMissingValue:
      std::fprintf(stderr, "%s: %s needs a value\n", tool, name.c_str());
      std::exit(2);
  }
  return nullptr;
}

// Matches a "--name" / "--no-name" toggle pair; `name` is the positive
// spelling ("--board"). Returns true if argv[i] was either form, with `out`
// set accordingly.
inline bool bool_flag(const std::string& arg, const std::string& name,
                      bool& out) {
  if (arg == name) {
    out = true;
    return true;
  }
  if (arg.rfind("--", 0) == 0 && arg == "--no-" + name.substr(2)) {
    out = false;
    return true;
  }
  return false;
}

// Pure core of flag_uint, shared with the tests: parses `text` as an
// unsigned integer in any strtoull base (decimal, 0x hex, leading-0 octal)
// into `out`. Rejects empty text, a leading sign or space, trailing
// characters, and values above `max` (overflow included); `out` is then
// left alone.
inline bool parse_uint(const std::string& text, std::uint64_t max,
                       std::uint64_t& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (*end != '\0' || errno == ERANGE || v > max) return false;
  out = v;
  return true;
}

// The unsigned operand of `flag`, no larger than `max`, or exits with a
// usage error (status 2) on anything parse_uint rejects.
inline std::uint64_t flag_uint(const char* text, std::uint64_t max,
                               const char* flag, const char* tool) {
  std::uint64_t v = 0;
  if (!parse_uint(text, max, v)) {
    std::fprintf(stderr,
                 "%s: %s wants an unsigned integer no larger than %llu, "
                 "got '%s'\n",
                 tool, flag, static_cast<unsigned long long>(max), text);
    std::exit(2);
  }
  return v;
}

// Reads a whole file into a string, or exits with a usage error.
inline std::string read_file(const std::string& path, const char* tool) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", tool, path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace nfp::cli

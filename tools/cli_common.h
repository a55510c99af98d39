// Small shared helpers for the nfp* command-line tools.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
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

// Parses one repeated "--loop-bound ADDR=N" (or "--loop-total ADDR=N")
// operand into the annotation map. ADDR and N accept any strtoul base, so
// "0x40000010=12" and "1073741840=12" are equivalent. N == 0 is rejected
// unless `allow_zero` — a zero relative bound is meaningless, but a zero
// absolute total legitimately pins a never-executed loop. Returns false on
// malformed text (caller reports the usage error).
inline bool parse_loop_bound(const char* text,
                             std::map<std::uint32_t, std::uint64_t>& bounds,
                             bool allow_zero = false) {
  const char* eq = std::strchr(text, '=');
  if (eq == nullptr || eq == text || eq[1] == '\0') return false;
  char* end = nullptr;
  const unsigned long addr = std::strtoul(text, &end, 0);
  if (end != eq) return false;
  const unsigned long long n = std::strtoull(eq + 1, &end, 0);
  if (*end != '\0' || (n == 0 && !allow_zero)) return false;
  bounds[static_cast<std::uint32_t>(addr)] = n;
  return true;
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

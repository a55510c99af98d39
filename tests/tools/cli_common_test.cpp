// Regression tests for the shared CLI flag parsing (tools/cli_common.h):
// every value flag must accept both "--flag V" and "--flag=V", an empty
// inline value ("--flag=") must be a usage error rather than an empty
// operand, and the --name/--no-name toggle pairs must only match their own
// exact spellings (--board must not swallow --board-jit). These are the
// parsers behind nfpfuzz's corpus-replay options (--corpus-dir, --seed,
// --snapshot) and nfpc's snapshot path (--save-state/--load-state). Numeric
// operands go through one checked parser (parse_uint) that rejects what
// strtoull would silently read as 0 or truncate.
#include "cli_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace nfp::cli {
namespace {

// Builds a mutable argv from string literals; argv[0] is the tool name.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    storage.insert(storage.begin(), "tool");
    for (auto& s : storage) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(CliCommon, FlagValueTwoTokenForm) {
  Argv a({"--seed", "42"});
  int i = 1;
  const char* v = nullptr;
  EXPECT_EQ(match_flag_value("--seed", a.argc(), a.argv(), i, &v),
            FlagMatch::kMatched);
  EXPECT_STREQ(v, "42");
  EXPECT_EQ(i, 2);  // consumed the value token
}

TEST(CliCommon, FlagValueInlineForm) {
  Argv a({"--seed=42"});
  int i = 1;
  const char* v = nullptr;
  EXPECT_EQ(match_flag_value("--seed", a.argc(), a.argv(), i, &v),
            FlagMatch::kMatched);
  EXPECT_STREQ(v, "42");
  EXPECT_EQ(i, 1);  // inline form consumes nothing extra
}

TEST(CliCommon, FlagValueNoMatchLeavesIndexAlone) {
  Argv a({"--runs", "10"});
  int i = 1;
  const char* v = nullptr;
  EXPECT_EQ(match_flag_value("--seed", a.argc(), a.argv(), i, &v),
            FlagMatch::kNoMatch);
  EXPECT_EQ(i, 1);
  EXPECT_EQ(v, nullptr);
}

TEST(CliCommon, FlagValueMissingAtEndOfArgv) {
  Argv a({"--seed"});
  int i = 1;
  const char* v = nullptr;
  EXPECT_EQ(match_flag_value("--seed", a.argc(), a.argv(), i, &v),
            FlagMatch::kMissingValue);
}

TEST(CliCommon, FlagValueEmptyInlineValueIsMissing) {
  Argv a({"--seed="});
  int i = 1;
  const char* v = nullptr;
  EXPECT_EQ(match_flag_value("--seed", a.argc(), a.argv(), i, &v),
            FlagMatch::kMissingValue);
}

TEST(CliCommon, FlagValuePrefixDoesNotMatchLongerFlag) {
  // "--save-state" must not match a lookup for "--save"; only an exact name
  // or "name=" prefix counts.
  Argv a({"--save-state", "f.nfps"});
  int i = 1;
  const char* v = nullptr;
  EXPECT_EQ(match_flag_value("--save", a.argc(), a.argv(), i, &v),
            FlagMatch::kNoMatch);
  EXPECT_EQ(match_flag_value("--save-state", a.argc(), a.argv(), i, &v),
            FlagMatch::kMatched);
  EXPECT_STREQ(v, "f.nfps");
}

TEST(CliCommon, FlagValuePathsWithEquals) {
  // Only the first '=' splits; values containing '=' survive.
  Argv a({"--corpus-dir=/tmp/dir=odd"});
  int i = 1;
  const char* v = nullptr;
  EXPECT_EQ(match_flag_value("--corpus-dir", a.argc(), a.argv(), i, &v),
            FlagMatch::kMatched);
  EXPECT_STREQ(v, "/tmp/dir=odd");
}

TEST(CliCommon, BoolFlagPositiveAndNegative) {
  bool value = false;
  EXPECT_TRUE(bool_flag("--snapshot", "--snapshot", value));
  EXPECT_TRUE(value);
  EXPECT_TRUE(bool_flag("--no-snapshot", "--snapshot", value));
  EXPECT_FALSE(value);
}

TEST(CliCommon, BoolFlagExactSpellingOnly) {
  bool value = true;
  // --board must not swallow --board-jit (or its negation).
  EXPECT_FALSE(bool_flag("--board-jit", "--board", value));
  EXPECT_FALSE(bool_flag("--no-board-jit", "--board", value));
  EXPECT_FALSE(bool_flag("--boardx", "--board", value));
  EXPECT_FALSE(bool_flag("--board=1", "--board", value));
  EXPECT_TRUE(value);  // untouched on non-match
  EXPECT_TRUE(bool_flag("--no-board", "--board", value));
  EXPECT_FALSE(value);
}

TEST(CliCommon, ParseUintAcceptsEveryBase) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_uint("42", UINT64_MAX, v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_uint("0x2A", UINT64_MAX, v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_uint("052", UINT64_MAX, v));  // leading 0 is octal
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_uint("0", UINT64_MAX, v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_uint("0xFFFFFFFF", UINT32_MAX, v));  // bound inclusive
  EXPECT_EQ(v, 0xFFFFFFFFu);
  EXPECT_TRUE(parse_uint("18446744073709551615", UINT64_MAX, v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(CliCommon, ParseUintRejectsMalformedAndOutOfRange) {
  // Each of these is a usage error, not the 0 (or wrapped value) strtoull
  // would silently return.
  std::uint64_t v = 7;
  EXPECT_FALSE(parse_uint("abc", UINT64_MAX, v));
  EXPECT_FALSE(parse_uint("2x", UINT32_MAX, v));   // trailing characters
  EXPECT_FALSE(parse_uint("", UINT64_MAX, v));     // empty value
  EXPECT_FALSE(parse_uint("-1", UINT64_MAX, v));   // no sign (would wrap)
  EXPECT_FALSE(parse_uint("+1", UINT64_MAX, v));
  EXPECT_FALSE(parse_uint(" 1", UINT64_MAX, v));   // no leading space
  EXPECT_FALSE(parse_uint("0x", UINT64_MAX, v));   // base prefix only
  EXPECT_FALSE(parse_uint("0x100000000", UINT32_MAX, v));  // 32-bit field
  EXPECT_FALSE(parse_uint("18446744073709551616", UINT64_MAX, v));  // ERANGE
  EXPECT_EQ(v, 7u);  // rejected operands leave the output alone
}

TEST(CliCommon, DispatchNamesRoundTrip) {
  for (const sim::Dispatch d :
       {sim::Dispatch::kStep, sim::Dispatch::kBlock, sim::Dispatch::kJit}) {
    EXPECT_EQ(parse_dispatch(dispatch_name(d), "test"), d);
  }
}

}  // namespace
}  // namespace nfp::cli

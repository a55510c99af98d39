// Regression tests for the shared CLI flag parsing (tools/cli_common.h):
// every value flag must accept both "--flag V" and "--flag=V", an empty
// inline value ("--flag=") must be a usage error rather than an empty
// operand, and the --name/--no-name toggle pairs must only match their own
// exact spellings (--board must not swallow --board-jit). These are the
// parsers behind nfpfuzz's corpus-replay options (--corpus-dir, --seed,
// --snapshot) and nfpc's snapshot path (--save-state/--load-state).
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

TEST(CliCommon, ParseLoopBoundHexAndDecimalAddresses) {
  std::map<std::uint32_t, std::uint64_t> bounds;
  EXPECT_TRUE(parse_loop_bound("0x40000010=12", bounds));
  EXPECT_TRUE(parse_loop_bound("1073741856=7", bounds));  // 0x40000020
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds.at(0x40000010u), 12u);
  EXPECT_EQ(bounds.at(0x40000020u), 7u);
}

TEST(CliCommon, ParseLoopBoundOverwritesEarlierAnnotation) {
  std::map<std::uint32_t, std::uint64_t> bounds;
  EXPECT_TRUE(parse_loop_bound("0x40=3", bounds));
  EXPECT_TRUE(parse_loop_bound("0x40=9", bounds));
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds.at(0x40u), 9u);  // last annotation wins
}

TEST(CliCommon, ParseLoopBoundRejectsMalformedText) {
  std::map<std::uint32_t, std::uint64_t> bounds;
  EXPECT_FALSE(parse_loop_bound("40", bounds));       // no '='
  EXPECT_FALSE(parse_loop_bound("=5", bounds));       // empty address
  EXPECT_FALSE(parse_loop_bound("0x40=", bounds));    // empty value
  EXPECT_FALSE(parse_loop_bound("abc=3", bounds));    // non-numeric address
  EXPECT_FALSE(parse_loop_bound("0x40x=3", bounds));  // junk before '='
  EXPECT_FALSE(parse_loop_bound("0x40=3x", bounds));  // junk after value
  EXPECT_TRUE(bounds.empty());  // rejected operands leave the map untouched
}

TEST(CliCommon, ParseLoopBoundZeroNeedsAllowZero) {
  std::map<std::uint32_t, std::uint64_t> bounds;
  // A zero relative bound is meaningless...
  EXPECT_FALSE(parse_loop_bound("0x40=0", bounds));
  EXPECT_TRUE(bounds.empty());
  // ...but a zero absolute total pins a never-executed loop (--loop-total).
  EXPECT_TRUE(parse_loop_bound("0x40=0", bounds, /*allow_zero=*/true));
  EXPECT_EQ(bounds.at(0x40u), 0u);
}

TEST(CliCommon, DispatchNamesRoundTrip) {
  for (const sim::Dispatch d :
       {sim::Dispatch::kStep, sim::Dispatch::kBlock, sim::Dispatch::kJit}) {
    EXPECT_EQ(parse_dispatch(dispatch_name(d), "test"), d);
  }
}

}  // namespace
}  // namespace nfp::cli

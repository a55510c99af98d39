// The one JSON writer (sim/json.h): string escaping, round-trip number
// text, comma placement, and the block cache's stats object.
#include "sim/json.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "sim/block_cache.h"
#include "support/json_check.h"

namespace nfp::sim {
namespace {

std::string string_json(std::string_view s) {
  JsonWriter w;
  w.value(s);
  return w.str();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(string_json("plain.s"), R"("plain.s")");
  EXPECT_EQ(string_json("we\"ird\\k.s"), R"("we\"ird\\k.s")");
  EXPECT_EQ(string_json("a\nb\tc"), R"("a\nb\tc")");
  EXPECT_EQ(string_json("call \"we\\ird\" at\x01 0x40000000\n"),
            R"("call \"we\\ird\" at\u0001 0x40000000\n")");
  EXPECT_EQ(string_json("counter \"%g1\"\t\x1f"),
            R"("counter \"%g1\"\t\u001f")");
  EXPECT_EQ(string_json(std::string("\r\0\x7f", 3)),
            "\"\\u000d\\u0000\x7f\"");
  // Bytes at or above 0x20 pass through untouched (UTF-8 included).
  EXPECT_EQ(string_json("T\xcc\x82"), "\"T\xcc\x82\"");
  for (int c = 0; c < 0x20; ++c) {
    const std::string body(1, static_cast<char>(c));
    EXPECT_TRUE(test::json_parses(string_json(body))) << c;
  }
}

TEST(JsonWriter, DoublesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           1.0 / 3.0,
                           1223602750.0015624,
                           2.5e-300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::min()};
  for (const double d : values) {
    JsonWriter w;
    w.value(d);
    const double back = std::strtod(w.str().c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0) << w.str();
  }
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(std::numeric_limits<double>::quiet_NaN())
      .end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, PlacesCommasAcrossNesting) {
  JsonWriter w;
  w.begin_object()
      .field("n", std::uint64_t{18446744073709551615u})
      .field("i", -3)
      .field("ok", true)
      .key("empty")
      .begin_object()
      .end_object()
      .key("list")
      .begin_array()
      .value(1u)
      .begin_object()
      .field("s", "x")
      .end_object()
      .null()
      .end_array()
      .field("last", false)
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"n":18446744073709551615,"i":-3,"ok":true,"empty":{},)"
            R"("list":[1,{"s":"x"},null],"last":false})");
  EXPECT_TRUE(test::json_parses(w.str()));
}

TEST(JsonWriter, BlockCacheStatsCarryEveryCounter) {
  BlockCache::Stats s;
  s.blocks_morphed = 1;
  s.flushes = 9;
  EXPECT_EQ(test::to_json_string(s),
            R"({"blocks_morphed":1,"insns_morphed":0,"flushes":9})");
}

}  // namespace
}  // namespace nfp::sim

// The minimal JSON reader behind experiment specs: value grammar,
// escapes, strict errors with line:column, the nesting limit, and the
// config-oriented accessor contract (typed getters, missing-key
// messages).
#include "src/util/json.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

namespace xlf {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1.5, "b": -2e3, "c": true, "d": null,
          "e": "text", "f": [1, 2, 3], "g": {"nested": false}})");
  EXPECT_EQ(v.type(), JsonValue::Type::kObject);
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(v.at("b").as_number(), -2000.0);
  EXPECT_TRUE(v.at("c").as_bool());
  EXPECT_TRUE(v.at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "text");
  ASSERT_EQ(v.at("f").items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("f").items()[2].as_number(), 3.0);
  EXPECT_FALSE(v.at("g").at("nested").as_bool());
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("z"));
}

TEST(Json, ParsesStringEscapes) {
  const JsonValue v = JsonValue::parse(R"(["a\"b", "\\", "\n\t", "\u0041"])");
  EXPECT_EQ(v.items()[0].as_string(), "a\"b");
  EXPECT_EQ(v.items()[1].as_string(), "\\");
  EXPECT_EQ(v.items()[2].as_string(), "\n\t");
  EXPECT_EQ(v.items()[3].as_string(), "A");
}

TEST(Json, UnicodeEscapesEncodeUtf8) {
  // U+00E9 (two bytes) and U+20AC (three bytes).
  const JsonValue v = JsonValue::parse(R"(["\u00e9", "\u20AC"])");
  EXPECT_EQ(v.items()[0].as_string(), "\xC3\xA9");
  EXPECT_EQ(v.items()[1].as_string(), "\xE2\x82\xAC");
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    JsonValue::parse("{\n  \"a\": tru\n}");
    FAIL() << "malformed literal must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2:"), std::string::npos) << what;
  }
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1, \"a\": 2}"),
               std::invalid_argument);  // duplicate key
  EXPECT_THROW(JsonValue::parse("01e"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"\\q\""), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"\\ud800\""), std::invalid_argument);
}

TEST(Json, NestingPastTheLimitThrowsNamingDepthAndPosition) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const std::size_t limit = JsonValue::kMaxDepth;
  EXPECT_TRUE(JsonValue::parse(nested(limit)).is_array());
  const std::string over = std::to_string(limit + 1);
  try {
    JsonValue::parse(nested(limit + 1));
    FAIL() << "nesting past the limit must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "JSON error at 1:" + over + ": nesting depth " + over +
                  " exceeds the limit of " + std::to_string(limit));
  }
  // A million levels fail the same way, not by overflowing the stack.
  EXPECT_THROW(JsonValue::parse(nested(1000000)), std::invalid_argument);
}

TEST(Json, AccessorsEnforceTypesAndKeys) {
  const JsonValue v = JsonValue::parse(R"({"n": 4})");
  EXPECT_THROW(v.at("n").as_string(), std::invalid_argument);
  EXPECT_THROW(v.as_number(), std::invalid_argument);
  try {
    v.at("missing");
    FAIL() << "missing key must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

}  // namespace
}  // namespace xlf

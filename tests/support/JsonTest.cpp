//===- tests/support/JsonTest.cpp - Minimal JSON reader/writer tests ----------===//

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace igdt;

TEST(JsonTest, DumpsObjectsInInsertionOrder) {
  JsonValue V = JsonValue::object();
  V.set("b", JsonValue::number(2))
      .set("a", JsonValue::string("x"))
      .set("flag", JsonValue::boolean(true))
      .set("none", JsonValue::null());
  EXPECT_EQ(V.dump(), "{\"b\":2,\"a\":\"x\",\"flag\":true,\"none\":null}");
}

TEST(JsonTest, IntegersPrintWithoutFraction) {
  JsonValue A = JsonValue::array();
  A.push(JsonValue::number(42))
      .push(JsonValue::number(-3))
      .push(JsonValue::number(1.5));
  EXPECT_EQ(A.dump(), "[42,-3,1.5]");
}

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(jsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  JsonValue V = JsonValue::string("line\nbreak");
  EXPECT_EQ(V.dump(), "\"line\\nbreak\"");
}

TEST(JsonTest, RoundTripsThroughParse) {
  JsonValue V = JsonValue::object();
  V.set("name", JsonValue::string("bytecodePrim_add"))
      .set("count", JsonValue::number(17))
      .set("ok", JsonValue::boolean(false));
  JsonValue Inner = JsonValue::array();
  Inner.push(JsonValue::string("x")).push(JsonValue::number(2));
  V.set("items", std::move(Inner));

  auto Parsed = JsonValue::parse(V.dump());
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->stringOr("name", ""), "bytecodePrim_add");
  EXPECT_EQ(Parsed->numberOr("count", 0), 17);
  EXPECT_FALSE(Parsed->boolOr("ok", true));
  const JsonValue *Items = Parsed->find("items");
  ASSERT_NE(Items, nullptr);
  ASSERT_EQ(Items->Arr.size(), 2u);
  EXPECT_EQ(Items->Arr[0].Str, "x");
  EXPECT_EQ(Items->Arr[1].Num, 2);
}

TEST(JsonTest, ParseHandlesWhitespaceAndNesting) {
  auto V = JsonValue::parse(
      "  { \"a\" : [ 1 , { \"b\" : \"c\\u0041\" } , null ] }  ");
  ASSERT_TRUE(V.has_value());
  const JsonValue *A = V->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->Arr.size(), 3u);
  EXPECT_EQ(A->Arr[1].stringOr("b", ""), "cA");
  EXPECT_EQ(A->Arr[2].K, JsonValue::Kind::Null);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,2,]trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
}

TEST(JsonTest, TypedAccessorsFallBackOnWrongTypes) {
  auto V = JsonValue::parse("{\"n\":\"text\",\"s\":7}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->numberOr("n", -1), -1);
  EXPECT_EQ(V->stringOr("s", "dflt"), "dflt");
  EXPECT_EQ(V->numberOr("missing", 9), 9);
}

TEST(JsonTest, ParseRejectsANestingBombWithoutRecursingIntoIt) {
  // The parser recurses once per level and the daemon feeds it every
  // request frame, so an unbounded depth would overflow the stack.
  EXPECT_FALSE(JsonValue::parse(std::string(100000, '[')).has_value());
  std::string Closed = std::string(100000, '[') + std::string(100000, ']');
  EXPECT_FALSE(JsonValue::parse(Closed).has_value());
  std::string Objects;
  for (int I = 0; I < 100000; ++I)
    Objects += "{\"a\":";
  EXPECT_FALSE(JsonValue::parse(Objects).has_value());
}

TEST(JsonTest, ParseAcceptsNestingUpToTheCap) {
  auto Nested = [](unsigned Depth) {
    return std::string(Depth, '[') + std::string(Depth, ']');
  };
  EXPECT_TRUE(JsonValue::parse(Nested(JsonValue::MaxParseDepth)).has_value());
  EXPECT_FALSE(
      JsonValue::parse(Nested(JsonValue::MaxParseDepth + 1)).has_value());
}

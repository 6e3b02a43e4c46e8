//===- tests/support/JsonTest.cpp - Minimal JSON reader/writer tests ----------===//

#include "support/Json.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <ostream>
#include <string_view>

using namespace igdt;
using namespace std::string_view_literals;

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

TEST(JsonTest, ParseReadsEveryNumberFormOfTheGrammar) {
  struct Case {
    const char *Text;
    double Value;
  };
  for (Case C : {Case{"0", 0}, Case{"-0", 0}, Case{"7", 7}, Case{"-12", -12},
                 Case{"0.5", 0.5}, Case{"-3.25", -3.25}, Case{"1e3", 1000},
                 Case{"1E+2", 100}, Case{"25e-1", 2.5},
                 Case{"1.5e-3", 0.0015},
                 Case{"18446744073709551615", 18446744073709551615.0},
                 Case{"0.30000000000000004", 0.30000000000000004}}) {
    auto V = JsonValue::parse(C.Text);
    ASSERT_TRUE(V.has_value()) << C.Text;
    EXPECT_EQ(V->K, JsonValue::Kind::Number) << C.Text;
    EXPECT_EQ(V->Num, C.Value) << C.Text;
  }
}

TEST(JsonTest, NumbersRoundTripThroughDumpBitForBit) {
  for (double D : {0.1, 1.0 / 3, 123456.789, -2.5e-300, 1.7976931348623157e308,
                   4503599627370497.0}) {
    auto V = JsonValue::parse(JsonValue::number(D).dump());
    ASSERT_TRUE(V.has_value()) << D;
    EXPECT_EQ(V->Num, D);
  }
}

/// Inputs outside RFC 8259 that a lenient reader would accept or
/// reinterpret; each must be rejected outright.
struct RejectCase {
  const char *Name;
  std::string_view Text;
};

void PrintTo(const RejectCase &C, std::ostream *OS) { *OS << C.Name; }

class JsonRejectTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(JsonRejectTest, ParseRejects) {
  EXPECT_FALSE(JsonValue::parse(std::string(GetParam().Text)).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonRejectTest,
    ::testing::Values(
        RejectCase{"MinusInsideNumber", "1-2"sv},
        RejectCase{"TwoDecimalPoints", "[1.2.3]"sv},
        RejectCase{"EmptyExponent", "[1e]"sv},
        RejectCase{"LeadingPlus", "+5"sv},
        RejectCase{"LeadingZero", "01"sv},
        RejectCase{"NoIntegerPart", ".5"sv},
        RejectCase{"NoFractionDigits", "1."sv},
        RejectCase{"BareMinus", "-"sv},
        RejectCase{"SignOnlyExponent", "1e+"sv},
        RejectCase{"OutOfRange", "1e999"sv},
        RejectCase{"LoneHighSurrogate", "\"\\ud800\""sv},
        RejectCase{"LoneLowSurrogate", "\"\\udc00\""sv},
        RejectCase{"HighSurrogateThenNonSurrogate", "\"\\ud800\\u0041\""sv},
        RejectCase{"ShortUnicodeEscape", "\"\\u12\""sv},
        RejectCase{"RawNewlineInString", "\"a\nb\""sv},
        RejectCase{"RawTabInString", "\"a\tb\""sv},
        RejectCase{"RawNulInString", "\"a\0b\""sv},
        RejectCase{"VerticalTabWhitespace", "\v1"sv},
        RejectCase{"FormFeedWhitespace", "[1,\f2]"sv},
        RejectCase{"UnknownEscape", "\"\\x41\""sv}),
    [](const ::testing::TestParamInfo<RejectCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto V = JsonValue::parse("[\"\\u00e9\", \"\\u20AC\", \"\\ud83d\\ude00\", "
                            "\"caf\\u00E9!\", \"\\u0000\"]");
  ASSERT_TRUE(V.has_value());
  ASSERT_EQ(V->Arr.size(), 5u);
  EXPECT_EQ(V->Arr[0].Str, "\xC3\xA9");
  EXPECT_EQ(V->Arr[1].Str, "\xE2\x82\xAC");
  EXPECT_EQ(V->Arr[2].Str, "\xF0\x9F\x98\x80");
  EXPECT_EQ(V->Arr[3].Str, "caf\xC3\xA9!");
  EXPECT_EQ(V->Arr[4].Str, std::string(1, '\0'));
}

TEST(JsonTest, RawUtf8AndEscapedSolidusPassThrough) {
  auto V = JsonValue::parse("\"\xC3\xA9\\/\\b\\f\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->Str, "\xC3\xA9/\b\f");
}

TEST(JsonTest, EscapedControlBytesRoundTripToTheSameByte) {
  // jsonEscape writes every control byte it has no short form for as
  // \u00XX; reading it back must give that byte, so a checkpoint line
  // re-read and re-written stays byte-identical.
  std::string All;
  for (int C = 0; C < 0x20; ++C)
    All += char(C);
  All += "\x7F\"\\end";
  std::string Line = JsonValue::string(All).dump();
  auto V = JsonValue::parse(Line);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->Str, All);
  EXPECT_EQ(V->dump(), Line);
}

TEST(JsonTest, ReadUnsignedRefusesNegativeFractionalAndOutOfRangeNumbers) {
  auto V = JsonValue::parse("{\"neg\":-1,\"half\":2.5,\"huge\":1e20,"
                            "\"u32max\":4294967295,\"u32over\":4294967296,"
                            "\"u64over\":18446744073709551616,"
                            "\"whole\":2e1}");
  ASSERT_TRUE(V.has_value());
  unsigned U = 7;
  EXPECT_FALSE(V->readUnsigned("neg", U));
  EXPECT_FALSE(V->readUnsigned("half", U));
  EXPECT_FALSE(V->readUnsigned("huge", U));
  EXPECT_FALSE(V->readUnsigned("u32over", U));
  EXPECT_EQ(U, 7u) << "a refused read leaves the target untouched";
  EXPECT_TRUE(V->readUnsigned("u32max", U));
  EXPECT_EQ(U, 4294967295u);
  EXPECT_TRUE(V->readUnsigned("whole", U));
  EXPECT_EQ(U, 20u);

  std::uint64_t W = 0;
  EXPECT_TRUE(V->readUnsigned("u32over", W));
  EXPECT_EQ(W, 4294967296ull);
  // 2^64 is the first value a uint64_t cannot hold.
  EXPECT_FALSE(V->readUnsigned("u64over", W));
  EXPECT_FALSE(V->readUnsigned("neg", W));
}

TEST(JsonTest, ReadUnsignedLeavesAbsentAndNonNumericFieldsAtTheirDefault) {
  auto V = JsonValue::parse("{\"s\":\"3\",\"b\":true,\"n\":null}");
  ASSERT_TRUE(V.has_value());
  unsigned U = 5;
  EXPECT_TRUE(V->readUnsigned("missing", U));
  EXPECT_TRUE(V->readUnsigned("s", U));
  EXPECT_TRUE(V->readUnsigned("b", U));
  EXPECT_TRUE(V->readUnsigned("n", U));
  EXPECT_EQ(U, 5u);
}

#include "nidc/util/string_util.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "nidc/util/random.h"

namespace nidc {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoDelimiterYieldsWhole) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("nothing"), "nothing");
}

TEST(TrimTest, AllWhitespaceBecomesEmpty) {
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StringPrintfTest, LongOutput) {
  std::string long_arg(1000, 'a');
  const std::string out = StringPrintf("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 1002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

// The snapshot codec's doubles: its bytes are the service digest, so the
// appenders must print exactly what printf does, and the parser must read
// every value back bit-exactly.
TEST(DoubleFormatTest, MatchesPrintfOnRandomBitPatterns) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0,  -0.0,          kInf, -kInf,
                                nan,  -nan,          1.0,  -2.75,
                                0.1,  1.0 / 3.0,     1e21, 1e-5,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min()};
  Rng rng(2006);
  for (int i = 0; i < 1'000'000; ++i) {
    uint64_t bits = rng.NextUint64();
    // One in eight is subnormal: uniform bits seldom are.
    if (i % 8 == 0) bits &= 0x800FFFFFFFFFFFFFull;
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  char expected[64];
  std::string text;
  for (const double value : values) {
    text.clear();
    AppendHexDouble(value, &text);
    std::snprintf(expected, sizeof(expected), "%a", value);
    ASSERT_EQ(text, expected);
    const std::optional<double> hex = ParseHexDouble(text);
    ASSERT_TRUE(hex.has_value()) << text;

    text.clear();
    AppendDouble17(value, &text);
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    ASSERT_EQ(text, expected);
    const std::optional<double> decimal = ParseHexDouble(text);
    ASSERT_TRUE(decimal.has_value()) << text;

    if (std::isnan(value)) {
      ASSERT_TRUE(std::isnan(*hex) && std::isnan(*decimal));
      ASSERT_EQ(std::signbit(*hex), std::signbit(value));
      ASSERT_EQ(std::signbit(*decimal), std::signbit(value));
    } else {
      ASSERT_EQ(std::memcmp(&*hex, &value, sizeof(value)), 0) << text;
      ASSERT_EQ(std::memcmp(&*decimal, &value, sizeof(value)), 0) << text;
    }
  }
}

TEST(DoubleFormatTest, ParseHexDoubleTakesOnlyWholeNumbers) {
  EXPECT_EQ(ParseHexDouble("0x1.8p+1"), 3.0);
  EXPECT_EQ(ParseHexDouble("-0x1p-1"), -0.5);
  EXPECT_EQ(ParseHexDouble("2.5"), 2.5);
  for (const char* bad : {"", "-", "0x", "-0x", "0x-1p0", "0xinf", "--1",
                          "0x1p+1 ", "0x1p+1x", "1e400", "x1"}) {
    EXPECT_FALSE(ParseHexDouble(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace nidc

#include "common/stringutil.h"

#include <gtest/gtest.h>

namespace rpc {
namespace {

TEST(SplitTest, BasicSplit) {
  const auto fields = Split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto fields = Split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitTest, SingleField) {
  const auto fields = Split("alone", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble("  42 ", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("--3", &v));
}

TEST(ParseDoubleTest, RejectsNonFiniteValues) {
  double v = 7.0;
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                           "1e999", "-1e999"}) {
    EXPECT_FALSE(ParseDouble(text, &v)) << text;
  }
  EXPECT_EQ(v, 7.0);  // untouched on failure
  EXPECT_TRUE(ParseDouble("1e-320", &v));  // subnormal, still finite
  EXPECT_GT(v, 0.0);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(FormatDoubleTest, UsesSignificantDigits) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(1234567.0, 3), "1.23e+06");
}

}  // namespace
}  // namespace rpc

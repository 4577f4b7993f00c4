#include "support/strings.hpp"

#include <gtest/gtest.h>

namespace psnap::strings {
namespace {

TEST(Split, KeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleField) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, EmptyInput) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitWhitespace, DropsRuns) {
  auto parts = splitWhitespace("  the\tquick \n brown  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "the");
  EXPECT_EQ(parts[1], "quick");
  EXPECT_EQ(parts[2], "brown");
}

TEST(SplitWhitespace, EmptyAndBlank) {
  EXPECT_TRUE(splitWhitespace("").empty());
  EXPECT_TRUE(splitWhitespace(" \t\n").empty());
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(Trim, BothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsEndsWith, Basic) {
  EXPECT_TRUE(startsWith("#pragma omp", "#pragma"));
  EXPECT_FALSE(startsWith("omp", "#pragma"));
  EXPECT_TRUE(endsWith("main.c", ".c"));
  EXPECT_FALSE(endsWith("c", "main.c"));
}

TEST(ReplaceAll, Basic) {
  EXPECT_EQ(replaceAll("<#1> + <#1>", "<#1>", "x"), "x + x");
  EXPECT_EQ(replaceAll("abc", "z", "y"), "abc");
  EXPECT_EQ(replaceAll("", "a", "b"), "");
}

TEST(ReplaceAll, EmptyFromReturnsInput) {
  EXPECT_EQ(replaceAll("abc", "", "x"), "abc");
}

TEST(ToLower, Ascii) { EXPECT_EQ(toLower("MiXeD"), "mixed"); }

TEST(Indent, MultiLine) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");  // blank lines stay blank
}

TEST(FormatNumber, Integers) {
  EXPECT_EQ(formatNumber(0), "0");
  EXPECT_EQ(formatNumber(30), "30");
  EXPECT_EQ(formatNumber(-7), "-7");
  EXPECT_EQ(formatNumber(1e6), "1000000");
}

TEST(FormatNumber, Fractions) {
  EXPECT_EQ(formatNumber(0.5), "0.5");
  EXPECT_EQ(formatNumber(1.0 / 3.0), "0.3333333333333333");
}

TEST(FormatNumber, RoundTrips) {
  for (double v : {3.14159, -2.5e-7, 1234.5678, 0.1}) {
    double parsed = 0;
    ASSERT_TRUE(parseNumber(formatNumber(v), parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(ParseNumber, Valid) {
  double out = 0;
  EXPECT_TRUE(parseNumber("42", out));
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(parseNumber(" -3.5 ", out));
  EXPECT_EQ(out, -3.5);
  EXPECT_TRUE(parseNumber("1e3", out));
  EXPECT_EQ(out, 1000);
}

TEST(ParseNumber, Invalid) {
  double out = 0;
  EXPECT_FALSE(parseNumber("", out));
  EXPECT_FALSE(parseNumber("abc", out));
  EXPECT_FALSE(parseNumber("1.2.3", out));
  EXPECT_FALSE(parseNumber("4 2", out));
}

TEST(Utf8, DecodesWellFormedCharacters) {
  EXPECT_EQ(utf8At("A", 0).codePoint, 65u);
  EXPECT_EQ(utf8At("é", 0).codePoint, 233u);
  EXPECT_EQ(utf8At("é", 0).bytes, 2u);
  EXPECT_EQ(utf8At("日本", 3).codePoint, 0x672cu);
  EXPECT_EQ(utf8At("😀", 0).codePoint, 0x1f600u);
  EXPECT_EQ(utf8At("😀", 0).bytes, 4u);
  EXPECT_EQ(utf8Count("a日😀é"), 4u);
  EXPECT_EQ(utf8Count(""), 0u);
}

TEST(Utf8, MalformedBytesAreSingleCharacters) {
  // Stray continuation, overlong "/", UTF-16 surrogate, above U+10FFFF,
  // and sequences truncated by the end of the text.
  for (std::string_view bad :
       {"\x80", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80",
        "\xe6\x97", "\xf0\x9f\x98", "\xff"}) {
    SCOPED_TRACE(std::string(bad));
    EXPECT_EQ(utf8At(bad, 0).bytes, 1u);
    EXPECT_EQ(utf8At(bad, 0).codePoint, uint8_t(bad[0]));
    EXPECT_EQ(utf8Count(bad), bad.size());
  }
  // A truncated tail does not swallow the character after it.
  EXPECT_EQ(utf8Count("\xe6" "A"), 2u);
}

TEST(Utf8, EncodesScalarValuesAndReplacesTheRest) {
  EXPECT_EQ(utf8Encode(66), "B");
  EXPECT_EQ(utf8Encode(233), "é");
  EXPECT_EQ(utf8Encode(0x65e5), "日");
  EXPECT_EQ(utf8Encode(0x1f600), "😀");
  for (long long bad : {-1LL, 0xd800LL, 0xdfffLL, 0x110000LL}) {
    EXPECT_EQ(utf8Encode(bad), "\xef\xbf\xbd") << bad;
  }
  for (long long cp : {0x7fLL, 0x80LL, 0x7ffLL, 0x800LL, 0xffffLL,
                       0x10000LL, 0x10ffffLL}) {
    const std::string text = utf8Encode(cp);
    EXPECT_EQ(utf8At(text, 0).codePoint, uint32_t(cp));
    EXPECT_EQ(utf8At(text, 0).bytes, text.size());
  }
}

}  // namespace
}  // namespace psnap::strings

#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace xsm {
namespace {

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AuthorName"), "authorname");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("a-B_c9"), "a-b_c9");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nabc\r "), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("schema.xsd", "schema"));
  EXPECT_FALSE(StartsWith("s", "schema"));
  EXPECT_TRUE(EndsWith("schema.xsd", ".xsd"));
  EXPECT_FALSE(EndsWith("schema.dtd", ".xsd"));
}

TEST(StringUtilTest, TokenizeCamelCase) {
  EXPECT_EQ(TokenizeIdentifier("authorName"),
            (std::vector<std::string>{"author", "name"}));
  EXPECT_EQ(TokenizeIdentifier("AuthorName"),
            (std::vector<std::string>{"author", "name"}));
}

TEST(StringUtilTest, TokenizeSnakeAndKebab) {
  EXPECT_EQ(TokenizeIdentifier("author_name"),
            (std::vector<std::string>{"author", "name"}));
  EXPECT_EQ(TokenizeIdentifier("author-name"),
            (std::vector<std::string>{"author", "name"}));
  EXPECT_EQ(TokenizeIdentifier("xs:element"),
            (std::vector<std::string>{"xs", "element"}));
}

TEST(StringUtilTest, TokenizeAcronymRun) {
  EXPECT_EQ(TokenizeIdentifier("XMLSchema"),
            (std::vector<std::string>{"xml", "schema"}));
  EXPECT_EQ(TokenizeIdentifier("parseXML"),
            (std::vector<std::string>{"parse", "xml"}));
}

TEST(StringUtilTest, TokenizeDigits) {
  EXPECT_EQ(TokenizeIdentifier("address2"),
            (std::vector<std::string>{"address", "2"}));
  EXPECT_EQ(TokenizeIdentifier("ipv4Address"),
            (std::vector<std::string>{"ipv", "4", "address"}));
}

TEST(StringUtilTest, TokenizeEmptyAndSeparatorsOnly) {
  EXPECT_TRUE(TokenizeIdentifier("").empty());
  EXPECT_TRUE(TokenizeIdentifier("_-_").empty());
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 0.5), "0.50");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StringUtilTest, AppendFixedPrintsThePrintfDigits) {
  std::vector<double> values = {
      0.0,        -0.0,       1.0,          -1.0,       0.12345650,
      0.99999995, 0.0005,     0.00049999,   0.5,        1.5,
      2.5,        1.0 / 3.0,  1e-300,       DBL_MIN,    DBL_TRUE_MIN,
      1e22,       1e300,      DBL_MAX,      -DBL_MAX,   123456.7895,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(2006);
  for (int i = 0; i < 2000; ++i) {
    uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value) && std::fabs(value) < 1e30) {
      values.push_back(value);
    }
    values.push_back(std::uniform_real_distribution<double>(0, 1)(rng));
  }
  // 60 decimals of DBL_MAX outgrow the stack buffer: the printf fallback.
  for (int precision : {0, 3, 4, 6, 17, 60}) {
    for (double value : values) {
      std::vector<char> expected(512);
      std::snprintf(expected.data(), expected.size(), "%.*f", precision,
                    value);
      std::string out = "x";
      AppendFixed(&out, value, precision);
      EXPECT_EQ(out, "x" + std::string(expected.data()))
          << "precision " << precision;
    }
  }
}

TEST(StringUtilTest, AppendIntegerPrintsTheDecimalDigits) {
  std::string out;
  AppendInteger(&out, std::numeric_limits<int32_t>::min());
  out += ' ';
  AppendInteger(&out, 0);
  out += ' ';
  AppendInteger(&out, std::numeric_limits<size_t>::max());
  out += ' ';
  AppendInteger(&out, std::numeric_limits<long long>::min());
  EXPECT_EQ(out, "-2147483648 0 18446744073709551615 -9223372036854775808");
}

TEST(StringUtilTest, AppendHexPrintsThePrintfDigits) {
  for (unsigned long long value :
       {0ull, 1ull, 0xfull, 0x10ull, 0xabcdefull, 0x0123456789abcdefull,
        0x8000000000000000ull, std::numeric_limits<unsigned long long>::max()}) {
    for (int width : {0, 1, 8, 16, 20}) {
      std::string out = "x";
      AppendHex(&out, value, width);
      EXPECT_EQ(out, "x" + StringPrintf("%0*llx", width, value))
          << value << " width " << width;
    }
  }
}

}  // namespace
}  // namespace xsm

#include "common/string_util.hpp"

#include <gtest/gtest.h>

namespace dbs {
namespace {

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("\r\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Split, DropsEmptyFields) {
  EXPECT_EQ(split("a  b\tc"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("   "), std::vector<std::string>{});
  EXPECT_EQ(split("a:b::c", ":"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitOnce, FirstOccurrence) {
  const auto r = split_once("KEY=a=b", '=');
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, "KEY");
  EXPECT_EQ(r->second, "a=b");
  EXPECT_FALSE(split_once("no-separator", '=').has_value());
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("DfsPolicy", "DFSPOLICY"));
  EXPECT_FALSE(iequals("abc", "abcd"));
  EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(ToUpper, Ascii) {
  EXPECT_EQ(to_upper("UserCfg[u1]"), "USERCFG[U1]");
}

struct DurationCase {
  const char* text;
  std::int64_t expected_seconds;
};

// Name each case by its input text. gtest's default dump of the raw bytes
// includes the string's address, so the discovered ctest names would
// change with every build and every run under ASLR.
void PrintTo(const DurationCase& c, std::ostream* os) {
  *os << testing::PrintToString(c.text);
}

class ParseDurationValid : public testing::TestWithParam<DurationCase> {};

TEST_P(ParseDurationValid, Parses) {
  const auto d = parse_duration(GetParam().text);
  ASSERT_TRUE(d.has_value()) << GetParam().text;
  EXPECT_EQ(*d, Duration::seconds(GetParam().expected_seconds));
}

INSTANTIATE_TEST_SUITE_P(
    Formats, ParseDurationValid,
    testing::Values(DurationCase{"0", 0}, DurationCase{"3600", 3600},
                    DurationCase{"06:00:00", 21600},
                    DurationCase{"00:30:00", 1800}, DurationCase{"02:05", 125},
                    DurationCase{" 500 ", 500},
                    DurationCase{"100:00:00", 360000}));

class ParseDurationInvalid : public testing::TestWithParam<const char*> {};

TEST_P(ParseDurationInvalid, Rejects) {
  EXPECT_FALSE(parse_duration(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Formats, ParseDurationInvalid,
                         testing::Values("", "abc", "1:2:3:4", "-5", "1.5",
                                         "12:", ":30", "1h"));

TEST(ParseBool, Variants) {
  EXPECT_EQ(parse_bool("1"), true);
  EXPECT_EQ(parse_bool("0"), false);
  EXPECT_EQ(parse_bool("TRUE"), true);
  EXPECT_EQ(parse_bool("off"), false);
  EXPECT_EQ(parse_bool("Yes"), true);
  EXPECT_FALSE(parse_bool("2").has_value());
  EXPECT_FALSE(parse_bool("").has_value());
}

TEST(ParseInt, NonNegativeOnly) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" 7 "), 7);
  EXPECT_FALSE(parse_int("-1").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(ParseDouble, Parses) {
  EXPECT_DOUBLE_EQ(*parse_double("0.4"), 0.4);
  EXPECT_DOUBLE_EQ(*parse_double("-2.5e3"), -2500.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.0x").has_value());
}

}  // namespace
}  // namespace dbs

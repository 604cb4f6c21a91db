#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace akadns {
namespace {

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("WwW.ExAmPlE.CoM"), "www.example.com");
  EXPECT_EQ(to_lower("already-lower_123"), "already-lower_123");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("ABC", "abc"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "ab"));
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = split_whitespace("  foo\t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("www.example.com", "www."));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(ends_with("www.example.com", ".com"));
  EXPECT_FALSE(ends_with("ab", "abc"));
}

TEST(Strings, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("hello"), fnv1a("hello"));
  EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
  EXPECT_NE(fnv1a(""), fnv1a(std::string_view("\0", 1)));
}

TEST(Strings, ParseNumberTakesTheWholeStringInRange) {
  EXPECT_EQ(parse_number<std::uint16_t>("5300"), 5300);
  EXPECT_EQ(parse_number<std::uint16_t>("0"), 0);
  EXPECT_EQ(parse_number<std::uint16_t>("65535"), 65535);
  EXPECT_EQ(parse_number<std::int64_t>("-1"), -1);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_number<double>("0.05"), 0.05);
  EXPECT_EQ(parse_number<double>("1e3"), 1000.0);
  EXPECT_EQ(parse_number<std::size_t>("32", 1, 1024), 32u);

  EXPECT_FALSE(parse_number<std::uint16_t>("70000"));  // wraps to 4464 under strtoul
  EXPECT_FALSE(parse_number<std::uint16_t>("5x"));     // strtoul stops at 'x'
  EXPECT_FALSE(parse_number<std::size_t>("abc"));      // strtoull reads 0
  EXPECT_FALSE(parse_number<std::uint16_t>(""));
  EXPECT_FALSE(parse_number<std::uint16_t>(" 53"));
  EXPECT_FALSE(parse_number<std::uint16_t>("+53"));
  EXPECT_FALSE(parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_number<std::size_t>("0", 1, 1024));
  EXPECT_FALSE(parse_number<std::size_t>("1025", 1, 1024));
  EXPECT_FALSE(parse_number<double>("nan"));
  EXPECT_FALSE(parse_number<double>("-0.5", 0.0));
  EXPECT_FALSE(parse_number<double>("1.5", 0.0, 1.0));
  EXPECT_FALSE(parse_number<double>("0.5ms"));
}

}  // namespace
}  // namespace akadns

#include "core/delegation_sets.hpp"

#include <gtest/gtest.h>

#include <set>

namespace akadns::core {
namespace {

TEST(DelegationSets, BinomialBasics) {
  EXPECT_EQ(binomial(24, 6), 134'596u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(4, 6), 0u);
}

TEST(DelegationSets, MaxEnterprisesMatchesPaper) {
  // "enabling the architecture to support up to C(24,6) enterprises".
  EXPECT_EQ(max_enterprises(), 134'596u);
}

TEST(DelegationSets, FirstAndLastSets) {
  const auto first = delegation_set_for(0);
  EXPECT_EQ(first, (std::array<std::uint32_t, 6>{0, 1, 2, 3, 4, 5}));
  const auto last = delegation_set_for(max_enterprises() - 1);
  EXPECT_EQ(last, (std::array<std::uint32_t, 6>{18, 19, 20, 21, 22, 23}));
}

TEST(DelegationSets, OutOfRangeThrows) {
  EXPECT_THROW(delegation_set_for(max_enterprises()), std::out_of_range);
}

TEST(DelegationSets, SetsAreSortedAndInRange) {
  for (std::uint64_t index : {0ULL, 1ULL, 1000ULL, 77'777ULL, 134'595ULL}) {
    const auto set = delegation_set_for(index);
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_LT(set[i], kCloudCount);
      if (i > 0) {
        EXPECT_LT(set[i - 1], set[i]);
      }
    }
  }
}

TEST(DelegationSets, UnrankRankRoundTrip) {
  for (std::uint64_t index = 0; index < max_enterprises(); index += 997) {
    EXPECT_EQ(delegation_set_index(delegation_set_for(index)), index);
  }
}

TEST(DelegationSets, AllSetsDistinct) {
  // Sampled uniqueness check (full enumeration is 134,596 sets — cheap
  // enough, actually, so do it exhaustively over a stride of 7).
  std::set<std::array<std::uint32_t, 6>> seen;
  for (std::uint64_t index = 0; index < max_enterprises(); index += 7) {
    EXPECT_TRUE(seen.insert(delegation_set_for(index)).second) << index;
  }
}

TEST(DelegationSets, DistinctEnterprisesShareAtMostFiveClouds) {
  // §4.3.1: "any other enterprise B will have at least one delegation
  // not in common with A".
  const auto a = delegation_set_for(12'345);
  for (std::uint64_t other : {0ULL, 12'344ULL, 12'346ULL, 99'999ULL}) {
    const auto b = delegation_set_for(other);
    EXPECT_LE(overlap(a, b), 5u);
  }
  EXPECT_EQ(overlap(a, a), 6u);
}

TEST(DelegationSets, CdnDelegationHas13DistinctClouds) {
  const auto clouds = cdn_delegation();
  EXPECT_EQ(clouds.size(), kCdnDelegationSize);
  const std::set<std::uint32_t> distinct(clouds.begin(), clouds.end());
  EXPECT_EQ(distinct.size(), kCdnDelegationSize);
  for (const auto c : clouds) EXPECT_LT(c, kCloudCount);
}

}  // namespace
}  // namespace akadns::core

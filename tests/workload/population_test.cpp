#include "workload/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/stats.hpp"

namespace akadns::workload {
namespace {

PopulationConfig small_config() {
  PopulationConfig config;
  config.resolver_count = 20'000;
  config.asn_count = 500;
  return config;
}

TEST(ResolverPopulation, CalibratedIpSkew) {
  // Figure 2 "IPs": top 3% of resolvers carry ~80% of queries.
  ResolverPopulation population(small_config(), 1);
  std::vector<double> weights;
  for (const auto& r : population.resolvers()) weights.push_back(r.weight);
  EXPECT_NEAR(mass_of_top(weights, 0.03), 0.80, 0.03);
}

TEST(ResolverPopulation, CalibratedAsnSkew) {
  // Figure 2 "ASNs": top 1% of ASNs carry ~83%. The indirect assignment
  // (heavy resolvers into heavy ASNs) makes this approximate.
  ResolverPopulation population(small_config(), 2);
  std::map<std::uint32_t, double> by_asn;
  for (const auto& r : population.resolvers()) by_asn[r.asn] += r.weight;
  std::vector<double> asn_weights;
  for (const auto& [asn, weight] : by_asn) asn_weights.push_back(weight);
  const double mass = mass_of_top(asn_weights, 0.01);
  EXPECT_GT(mass, 0.70);
  EXPECT_LT(mass, 0.92);
}

TEST(ResolverPopulation, RegionMass) {
  // NA, Europe and Asia carry ~92%: they are the top three of the four
  // regions, the rest of the world the lightest.
  ResolverPopulation population(small_config(), 3);
  std::vector<double> by_region(4);
  for (const auto& r : population.resolvers()) {
    by_region[static_cast<std::size_t>(r.region)] += r.weight;
  }
  EXPECT_EQ(std::min_element(by_region.begin(), by_region.end()) - by_region.begin(),
            static_cast<std::ptrdiff_t>(Region::RestOfWorld));
  EXPECT_NEAR(mass_of_top(by_region, 0.75), 0.92, 0.04);
}

TEST(ResolverPopulation, UniqueAddresses) {
  ResolverPopulation population(small_config(), 4);
  std::set<std::string> addresses;
  for (const auto& r : population.resolvers()) addresses.insert(r.address.to_string());
  EXPECT_EQ(addresses.size(), population.size());
}

TEST(ResolverPopulation, WeightedSamplingSkewsToHeavyHitters) {
  ResolverPopulation population(small_config(), 5);
  Rng rng(6);
  const auto top = population.top_by_weight(0.03);
  const std::set<std::size_t> top_set(top.begin(), top.end());
  int hits = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (top_set.contains(population.sample(rng))) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.80, 0.03);
}

TEST(ResolverPopulation, WeeklyStabilityOfHeavyHitters) {
  // §2: week-to-week, the top-3% lists share 85-98% of members.
  ResolverPopulation population(small_config(), 7);
  Rng rng(8);
  const auto before = population.top_by_weight(0.03);
  population.advance_week(rng);
  const auto after = population.top_by_weight(0.03);
  const std::set<std::size_t> before_set(before.begin(), before.end());
  std::size_t shared = 0;
  for (const auto idx : after) {
    if (before_set.contains(idx)) ++shared;
  }
  const double overlap = static_cast<double>(shared) / static_cast<double>(after.size());
  EXPECT_GT(overlap, 0.85);
  EXPECT_LE(overlap, 1.0);
}

TEST(ResolverPopulation, WeeklyRateChangeDistribution) {
  // Figure 4: ~53% of query-weighted resolvers change by less than ±10%.
  ResolverPopulation population(small_config(), 9);
  std::vector<double> before_weights;
  for (const auto& r : population.resolvers()) before_weights.push_back(r.weight);
  Rng rng(10);
  population.advance_week(rng);
  double weighted_within = 0.0, total_weight = 0.0;
  for (std::size_t i = 0; i < population.size(); ++i) {
    const double before = before_weights[i];
    const double after = population.resolver(i).weight;
    const double change = std::abs(after - before) / std::max(before, 1e-12);
    total_weight += before;
    if (change < 0.10) weighted_within += before;
  }
  const double fraction = weighted_within / total_weight;
  EXPECT_GT(fraction, 0.35);
  EXPECT_LT(fraction, 0.75);
}

TEST(ResolverPopulation, IpTtlsPlausible) {
  ResolverPopulation population(small_config(), 11);
  for (const auto& r : population.resolvers()) {
    EXPECT_GE(r.ip_ttl, 30);
    EXPECT_LE(r.ip_ttl, 128);
  }
}

TEST(ResolverPopulation, FixedPortFraction) {
  ResolverPopulation population(small_config(), 12);
  std::size_t fixed = 0;
  for (const auto& r : population.resolvers()) {
    if (!r.random_ports) ++fixed;
  }
  EXPECT_NEAR(static_cast<double>(fixed) / static_cast<double>(population.size()), 0.05,
              0.01);
}

}  // namespace
}  // namespace akadns::workload

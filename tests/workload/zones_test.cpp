#include "workload/zones.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace akadns::workload {
namespace {

HostedZonesConfig small_config() {
  HostedZonesConfig config;
  config.zone_count = 1'000;
  return config;
}

TEST(HostedZones, BuildsAllZones) {
  HostedZones zones(small_config(), 1);
  EXPECT_EQ(zones.zone_count(), 1'000u);
  EXPECT_EQ(zones.store().zone_count(), 1'000u);
  // Each hosted zone is well-formed.
  const auto zone = zones.store().find_zone(zones.apex(0));
  ASSERT_NE(zone, nullptr);
  EXPECT_TRUE(zone->validate().empty());
}

TEST(HostedZones, PopularitySkewCalibrated) {
  // Figure 2 "zones": top 1% of zones get ~88% of queries.
  HostedZones zones(small_config(), 2);
  std::vector<double> weights;
  for (std::size_t i = 0; i < zones.zone_count(); ++i) weights.push_back(zones.zone_mass(i));
  EXPECT_NEAR(mass_of_top(weights, 0.01), 0.88, 0.03);
}

TEST(HostedZones, HottestZoneMassApproximate) {
  // With 1,000 zones the two calibration targets are jointly infeasible
  // (10 zones carrying 88% forces the head above 8.8%); the shift search
  // should flatten the head as far as feasibility allows.
  HostedZones small(small_config(), 3);
  EXPECT_GT(small.zone_mass(0), 0.02);
  EXPECT_LT(small.zone_mass(0), 0.30);
  // At a paper-like population the head lands near the reported 5.5%.
  HostedZonesConfig big;
  big.zone_count = 20'000;
  big.names_min = 2;
  big.names_max = 4;  // keep construction fast
  HostedZones zones(big, 4);
  EXPECT_GT(zones.zone_mass(0), 0.03);
  EXPECT_LT(zones.zone_mass(0), 0.12);
}

TEST(HostedZones, SampleZoneIsWeighted) {
  HostedZones zones(small_config(), 4);
  Rng rng(5);
  std::size_t top_hits = 0;
  const int n = 20'000;
  const std::size_t top_k = 10;  // 1% of 1000 zones
  for (int i = 0; i < n; ++i) {
    if (zones.sample_zone(rng) < top_k) ++top_hits;
  }
  EXPECT_NEAR(static_cast<double>(top_hits) / n, 0.88, 0.03);
}

TEST(HostedZones, ValidNamesExistInZone) {
  HostedZones zones(small_config(), 6);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::size_t rank = zones.sample_zone(rng);
    const auto name = zones.sample_valid_name(rank, rng);
    const auto zone = zones.store().find_best_zone(name);
    ASSERT_NE(zone, nullptr) << name.to_string();
    const auto result = zone->lookup(name, dns::RecordType::A);
    // Valid names exist: answer, or NODATA at the apex (which owns
    // SOA/NS but may lack an A record).
    EXPECT_NE(result.status, zone::LookupStatus::NxDomain) << name.to_string();
  }
}

TEST(HostedZones, RandomSubdomainsAreNxDomain) {
  HostedZones zones(small_config(), 8);
  Rng rng(9);
  int nxdomain = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const std::size_t rank = zones.sample_zone(rng);
    const auto name = zones.random_subdomain(rank, rng);
    const auto zone = zones.store().find_best_zone(name);
    ASSERT_NE(zone, nullptr);
    if (zone->lookup(name, dns::RecordType::A).status == zone::LookupStatus::NxDomain) {
      ++nxdomain;
    }
  }
  // Zones with wildcards may absorb a few, but the vast majority miss.
  EXPECT_GT(nxdomain, n * 8 / 10);
}

TEST(HostedZones, DeterministicForSeed) {
  HostedZones a(small_config(), 10);
  HostedZones b(small_config(), 10);
  EXPECT_EQ(a.apex(5), b.apex(5));
  EXPECT_EQ(a.store().total_records(), b.store().total_records());
}

}  // namespace
}  // namespace akadns::workload

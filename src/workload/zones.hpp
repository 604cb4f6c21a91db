// Hosted-zone catalog for the ADHS workload (§2, Figure 2 "zones"):
// synthesizes N third-party enterprise zones, publishes them to a
// ZoneStore, and provides Zipf-calibrated popularity sampling where the
// top 1% of zones receive 88% of queries and the single most popular
// zone ~5.5%.
#pragma once

#include <string>
#include <vector>

#include "common/zipf.hpp"
#include "zone/zone_store.hpp"

namespace akadns::workload {

struct HostedZonesConfig {
  std::size_t zone_count = 10'000;
  double top_zone_fraction = 0.01;
  double top_zone_mass = 0.88;
  /// Mass of the single hottest zone (Zipf-Mandelbrot shift is tuned to
  /// approximate this).
  double hottest_zone_mass = 0.055;
  /// Valid hostnames per zone: uniform in [min, max].
  std::size_t names_min = 5;
  std::size_t names_max = 40;
  /// Fraction of zones containing a wildcard record.
  double wildcard_fraction = 0.05;
};

class HostedZones {
 public:
  HostedZones(HostedZonesConfig config, std::uint64_t seed);

  const zone::ZoneStore& store() const noexcept { return store_; }
  zone::ZoneStore& store() noexcept { return store_; }

  std::size_t zone_count() const noexcept { return apexes_.size(); }
  const dns::DnsName& apex(std::size_t rank) const { return apexes_.at(rank); }

  /// Samples a zone rank by popularity.
  std::size_t sample_zone(Rng& rng) const { return popularity_.sample(rng); }
  double zone_mass(std::size_t rank) const { return popularity_.pmf(rank); }

  /// A valid (existing) hostname in the given zone.
  dns::DnsName sample_valid_name(std::size_t rank, Rng& rng) const;

  /// A random (almost surely nonexistent) hostname in the given zone —
  /// the random-subdomain attack's query shape.
  dns::DnsName random_subdomain(std::size_t rank, Rng& rng) const;

  /// The deterministically evolved version of zone `rank`: evolved_zone
  /// applied to the current corpus zone. Both the serving and verifying
  /// sides of a live-reload run compute the identical bytes from
  /// (count, seed, generations) alone — no side channel.
  zone::Zone evolved(std::size_t rank, std::uint32_t generations = 1) const;

 private:
  HostedZonesConfig config_;
  zone::ZoneStore store_;
  std::vector<dns::DnsName> apexes_;
  std::vector<std::vector<dns::DnsName>> valid_names_;  // per zone rank
  ZipfSampler popularity_;
};

/// Deterministic zone evolution for live-reload drills: serial advances
/// by `generations` and every A record's last octet is bumped by the
/// same amount (mod 256). Any party holding the base zone computes the
/// byte-identical successor, which is what lets a load generator verify
/// mid-run flips without talking to the publisher.
zone::Zone evolved_zone(const zone::Zone& base, std::uint32_t generations = 1);

}  // namespace akadns::workload

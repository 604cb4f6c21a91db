// Resolver population model calibrated to §2 of the paper:
//   - 3% of resolver IPs drive 80% of queries (Figure 2 "IPs");
//   - 1% of ASNs drive 83% (Figure 2 "ASNs");
//   - 92% of queries from North America, Europe and Asia;
//   - the heavy-hitter set is stable week over week (85-98% overlap,
//     mean 92%) and 53% of query-weighted resolvers change their rate by
//     less than ±10% in a week (Figure 4).
//
// Weights are drawn from Zipf-Mandelbrot laws whose exponents are
// calibrated (ZipfSampler::calibrate_exponent) to hit the paper's
// top-share figures for the configured population size.
#pragma once

#include <vector>

#include "common/ip.hpp"
#include "common/zipf.hpp"

namespace akadns::workload {

enum class Region : std::uint8_t { NorthAmerica, Europe, Asia, RestOfWorld };

struct ResolverInfo {
  IpAddr address;
  std::uint32_t asn = 0;
  Region region = Region::NorthAmerica;
  /// Fraction of global query volume from this resolver.
  double weight = 0.0;
  /// Stable IP TTL observed at the platform (for the hop-count filter).
  std::uint8_t ip_ttl = 64;
  /// Whether the resolver uses random ephemeral source ports (most do).
  bool random_ports = true;
};

struct PopulationConfig {
  std::size_t resolver_count = 100'000;
  std::size_t asn_count = 2'000;
  double top_ip_fraction = 0.03;
  double top_ip_mass = 0.80;
  double top_asn_fraction = 0.01;
  double top_asn_mass = 0.83;
  /// Probability a resolver's ASN follows the heavy-resolvers-in-heavy-
  /// ASNs mapping (the rest scatter uniformly); tunes the ASN line of
  /// Figure 2 toward the paper's 83%.
  double asn_mapping_fidelity = 0.72;
  /// Fraction of queries from NA+EU+Asia.
  double major_region_mass = 0.92;
  /// Week-over-week lognormal sigma of per-resolver rates; calibrated so
  /// roughly half the weighted resolvers stay within ±10%.
  double weekly_sigma = 0.12;
  /// Fraction of resolvers replaced (identity churn) per week.
  double weekly_churn = 0.015;
  /// Fraction of resolvers with a fixed source port (§3.1).
  double fixed_port_fraction = 0.05;
};

class ResolverPopulation {
 public:
  ResolverPopulation(PopulationConfig config, std::uint64_t seed);

  const std::vector<ResolverInfo>& resolvers() const noexcept { return resolvers_; }
  std::size_t size() const noexcept { return resolvers_.size(); }
  const ResolverInfo& resolver(std::size_t i) const { return resolvers_.at(i); }

  /// Samples a resolver index proportionally to weight.
  std::size_t sample(Rng& rng) const;

  /// Indices of the top `fraction` of resolvers by weight.
  std::vector<std::size_t> top_by_weight(double fraction) const;

  /// Advances one week: jitters every resolver's weight lognormally and
  /// churns a small fraction of identities (new IP, fresh weight rank).
  void advance_week(Rng& rng);

 private:
  void rebuild_cdf();

  PopulationConfig config_;
  std::vector<ResolverInfo> resolvers_;
  std::vector<double> cdf_;  // for weighted sampling
};

}  // namespace akadns::workload

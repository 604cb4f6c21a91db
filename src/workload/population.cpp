#include "workload/population.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace akadns::workload {

ResolverPopulation::ResolverPopulation(PopulationConfig config, std::uint64_t seed)
    : config_(config) {
  Rng rng(seed);
  const std::size_t n = config_.resolver_count;

  // Per-resolver weights from a calibrated Zipf law. Rank 0 = heaviest.
  const double ip_exponent =
      ZipfSampler::calibrate_exponent(n, config_.top_ip_fraction, config_.top_ip_mass);
  ZipfSampler ip_zipf(n, ip_exponent);

  // ASN sizes from their own calibrated Zipf law; resolvers are assigned
  // to ASNs so that heavy resolvers concentrate in big ASNs (public DNS
  // services / major ISPs — the paper's top-6 observation).
  const double asn_exponent = ZipfSampler::calibrate_exponent(
      config_.asn_count, config_.top_asn_fraction, config_.top_asn_mass);
  ZipfSampler asn_zipf(config_.asn_count, asn_exponent);

  resolvers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ResolverInfo info;
    info.weight = ip_zipf.pmf(i);
    // Unique synthetic IPv4 per resolver, out of a documentation-ish pool.
    info.address = IpAddr(Ipv4Addr(0x0B000000u + static_cast<std::uint32_t>(i)));
    // Heavy resolvers mostly land in heavy ASNs (public DNS / major
    // ISPs); a minority scatter across the long tail, which keeps the
    // ASN concentration near the paper's 83% rather than ~100%.
    std::size_t asn_rank;
    if (rng.next_bool(config_.asn_mapping_fidelity)) {
      const double quantile =
          (static_cast<double>(i) + rng.next_double()) / static_cast<double>(n);
      // Invert the ASN CDF at a jittered quantile.
      const double target =
          std::min(0.999999, std::max(0.0, quantile * rng.next_double(0.6, 1.4)));
      std::size_t lo = 0, hi = config_.asn_count;
      while (lo + 1 < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (asn_zipf.cdf(mid) < target) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      asn_rank = lo;
    } else {
      asn_rank = static_cast<std::size_t>(rng.next_below(config_.asn_count));
    }
    info.asn = static_cast<std::uint32_t>(asn_rank + 1);
    // Region: stratified round-robin over ranks so the *weighted* shares
    // hit the target regardless of how skewed the weights are (a random
    // per-resolver draw would let the few heavy hitters swing the
    // weighted mass wildly).
    const auto strata = static_cast<std::uint32_t>(
        (i * 37 + 11) % 100);  // deterministic spread across ranks
    const auto major_cut = static_cast<std::uint32_t>(config_.major_region_mass * 100.0);
    if (strata < major_cut) {
      const double split = static_cast<double>(strata) / static_cast<double>(major_cut);
      info.region = split < 0.45 ? Region::NorthAmerica
                                 : (split < 0.75 ? Region::Europe : Region::Asia);
    } else {
      info.region = Region::RestOfWorld;
    }
    // Stable per-resolver IP TTL: initial 64 or 128 minus a hop count.
    const int initial = rng.next_bool(0.7) ? 64 : 128;
    info.ip_ttl = static_cast<std::uint8_t>(initial - rng.next_int(6, 28));
    info.random_ports = !rng.next_bool(config_.fixed_port_fraction);
    resolvers_.push_back(info);
  }
  rebuild_cdf();
}

void ResolverPopulation::rebuild_cdf() {
  cdf_.resize(resolvers_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < resolvers_.size(); ++i) {
    acc += resolvers_[i].weight;
    cdf_[i] = acc;
  }
  // Normalize in place so sampling stays correct after weekly jitter.
  for (auto& c : cdf_) c /= acc;
  if (!cdf_.empty()) cdf_.back() = 1.0;
}

std::size_t ResolverPopulation::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

std::vector<std::size_t> ResolverPopulation::top_by_weight(double fraction) const {
  std::vector<std::size_t> order(resolvers_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return resolvers_[a].weight > resolvers_[b].weight;
  });
  const auto k = static_cast<std::size_t>(fraction * static_cast<double>(order.size()));
  order.resize(std::max<std::size_t>(k, 1));
  return order;
}

void ResolverPopulation::advance_week(Rng& rng) {
  // Rate jitter: weight *= lognormal(0, sigma).
  for (auto& r : resolvers_) {
    r.weight *= std::exp(rng.next_gaussian(0.0, config_.weekly_sigma));
  }
  // Identity churn: a small fraction of resolvers disappear and are
  // replaced by newcomers with fresh (typically small) weights.
  const auto churn_count = static_cast<std::size_t>(
      config_.weekly_churn * static_cast<double>(resolvers_.size()));
  const auto victims = rng.sample_indices(resolvers_.size(), churn_count);
  for (const auto i : victims) {
    ResolverInfo& r = resolvers_[i];
    r.address = IpAddr(Ipv4Addr(0x0C000000u + static_cast<std::uint32_t>(
                                                  rng.next_below(0x00FFFFFF))));
    // Newcomers start small: sample a weight from the lower half.
    r.weight *= rng.next_double(0.01, 0.5);
    const int initial = rng.next_bool(0.7) ? 64 : 128;
    r.ip_ttl = static_cast<std::uint8_t>(initial - rng.next_int(6, 28));
  }
  rebuild_cdf();
}

}  // namespace akadns::workload

#include "workload/zones.hpp"

#include <cmath>

#include "zone/zone_builder.hpp"

namespace akadns::workload {
namespace {

/// Deterministic label pool for synthetic hostnames.
const char* kLabels[] = {"www",  "api",   "cdn",   "img",  "mail", "app",  "static",
                         "m",    "login", "assets", "edge", "news", "shop", "video",
                         "auth", "blog",  "dev",    "docs", "get",  "go"};
constexpr std::size_t kLabelCount = sizeof(kLabels) / sizeof(kLabels[0]);

std::string random_label(Rng& rng, std::size_t length) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[rng.next_below(36)]);
  }
  return out;
}

/// Picks the Zipf-Mandelbrot shift q whose calibrated law (top-1% mass
/// fixed to the target) brings the hottest zone's share closest to the
/// configured value. Note the two targets can be jointly infeasible for
/// small populations (the head cannot fall below the top-1% mean), in
/// which case the search returns the flattest feasible head.
double pick_shift(const HostedZonesConfig& config) {
  double best_q = 0.0;
  double best_err = 1e9;
  const auto top_k = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.top_zone_fraction *
                                  static_cast<double>(config.zone_count)));
  for (const double q : {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    const double s = ZipfSampler::calibrate_exponent(
        config.zone_count, config.top_zone_fraction, config.top_zone_mass, q);
    const ZipfSampler law(config.zone_count, s, q);
    // Only shifts for which the exponent calibration actually reached the
    // top-share target are eligible (very large shifts can be infeasible).
    if (std::abs(law.cdf(top_k) - config.top_zone_mass) > 0.01) continue;
    const double err = std::abs(law.pmf(0) - config.hottest_zone_mass);
    if (err < best_err) {
      best_err = err;
      best_q = q;
    }
  }
  return best_q;
}

}  // namespace

HostedZones::HostedZones(HostedZonesConfig config, std::uint64_t seed)
    : config_(config),
      popularity_([&] {
        const double q = pick_shift(config);
        const double s = ZipfSampler::calibrate_exponent(
            config.zone_count, config.top_zone_fraction, config.top_zone_mass, q);
        return ZipfSampler(config.zone_count, s, q);
      }()) {
  Rng rng(seed);
  apexes_.reserve(config_.zone_count);
  valid_names_.reserve(config_.zone_count);
  for (std::size_t i = 0; i < config_.zone_count; ++i) {
    const std::string apex_label = "ent" + std::to_string(i);
    const std::string apex_text = apex_label + ".example";
    zone::ZoneBuilder builder(apex_text, 1);
    builder.soa("ns1." + apex_text, "hostmaster." + apex_text, 1);
    builder.ns("@", "ns1." + apex_text);
    builder.a("ns1", Ipv4Addr(10, 53, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i))
                         .to_string());

    std::vector<dns::DnsName> names;
    const auto apex_name = dns::DnsName::from(apex_text);
    names.push_back(apex_name);
    const std::size_t count = static_cast<std::size_t>(
        rng.next_int(static_cast<std::int64_t>(config_.names_min),
                     static_cast<std::int64_t>(config_.names_max)));
    for (std::size_t k = 0; k < count; ++k) {
      std::string label = k < kLabelCount ? kLabels[k] : random_label(rng, 8);
      builder.a(label, Ipv4Addr(192, 0, 2, static_cast<std::uint8_t>(k + 1)).to_string());
      names.push_back(dns::DnsName::from(label + "." + apex_text));
    }
    if (rng.next_bool(config_.wildcard_fraction)) {
      builder.a("*.apps", Ipv4Addr(192, 0, 2, 200).to_string());
      names.push_back(dns::DnsName::from("apps." + apex_text));
    }
    store_.publish(builder.build());
    apexes_.push_back(apex_name);
    valid_names_.push_back(std::move(names));
  }
}

dns::DnsName HostedZones::sample_valid_name(std::size_t rank, Rng& rng) const {
  const auto& names = valid_names_.at(rank);
  return names[rng.next_below(names.size())];
}

zone::Zone HostedZones::evolved(std::size_t rank, std::uint32_t generations) const {
  const zone::ZonePtr base = store_.find_zone(apexes_.at(rank));
  return evolved_zone(*base, generations);
}

zone::Zone evolved_zone(const zone::Zone& base, std::uint32_t generations) {
  zone::Zone next(base.apex(), base.serial());
  for (dns::ResourceRecord rr : base.all_records()) {
    if (rr.type() == dns::RecordType::A) {
      auto& a = std::get<dns::ARecord>(rr.rdata);
      auto octets = a.address.octets();
      octets[3] = static_cast<std::uint8_t>(octets[3] + generations);
      a.address = Ipv4Addr(octets[0], octets[1], octets[2], octets[3]);
    }
    next.add(std::move(rr));
  }
  next.set_soa_serial(base.serial() + generations);
  return next;
}

dns::DnsName HostedZones::random_subdomain(std::size_t rank, Rng& rng) const {
  // "Often implemented by prepending a random string onto a valid zone,
  // e.g. a3n92nv9.akamai.com" (§4.3.4 footnote).
  const auto label = random_label(rng, 10);
  const auto name = apexes_.at(rank).prepend(label);
  return name.value_or(apexes_.at(rank));
}

}  // namespace akadns::workload

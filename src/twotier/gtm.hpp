// Global Traffic Management (GTM) — the paper's second authoritative
// service (§1): "DNS-based load-balancing among server deployments owned
// by an enterprise." A GTM property maps one hostname onto the
// enterprise's datacenters under a balancing policy; answers carry low
// TTLs so liveness/load changes redirect end-users within seconds
// ("server liveness and load ... new DNS records are computed and
// propagated within seconds").
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dns/rr.hpp"
#include "twotier/mapping.hpp"

namespace akadns::twotier {

enum class GtmPolicy : std::uint8_t {
  Failover,            // primary unless down, then next in order
  WeightedRoundRobin,  // sample datacenters proportionally to weight
  Performance,         // closest alive datacenter to the client
};

struct Datacenter {
  std::string id;
  IpAddr address;
  double weight = 1.0;       // WeightedRoundRobin share
  GeoPoint location{};       // Performance policy input
  bool alive = true;
  double load = 0.0;         // 0..1; >= overload threshold excluded
};

class GtmProperty {
 public:
  struct Config {
    dns::DnsName hostname;
    GtmPolicy policy = GtmPolicy::Failover;
    std::uint32_t ttl = 30;  // low, like all load-balancing answers
    /// Datacenters at/above this load are treated as down.
    double overload_threshold = 0.95;
  };

  explicit GtmProperty(Config config);

  const dns::DnsName& hostname() const noexcept { return config_.hostname; }
  GtmPolicy policy() const noexcept { return config_.policy; }

  void add_datacenter(Datacenter datacenter);
  bool set_alive(const std::string& id, bool alive);
  bool set_load(const std::string& id, double load);
  std::size_t datacenter_count() const noexcept { return datacenters_.size(); }

  /// The datacenters currently eligible to receive traffic.
  std::vector<const Datacenter*> eligible() const;

  /// Answers one query. `client_location` feeds the Performance policy
  /// (nullopt = unlocatable client, falls back to failover order).
  /// Returns empty when every datacenter is down — the enterprise-level
  /// hard-failure case.
  std::vector<dns::ResourceRecord> answer(const std::optional<GeoPoint>& client_location,
                                          Rng& rng) const;

 private:
  const Datacenter* pick_failover() const;
  const Datacenter* pick_weighted(Rng& rng) const;
  const Datacenter* pick_performance(const std::optional<GeoPoint>& client) const;
  dns::ResourceRecord record_for(const Datacenter& datacenter) const;

  Config config_;
  std::vector<Datacenter> datacenters_;  // failover order = insertion order
};

}  // namespace akadns::twotier

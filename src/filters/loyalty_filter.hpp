// Loyalty filter (§4.3.4, attack class 5 "Spoofed Source IP & IP TTL").
//
// "Each nameserver independently tracks the resolvers that historically
// send DNS queries to it. ... allowlisted resolvers only appear in the
// loyalty filter of nameservers to which the allowlisted resolver is
// routed [by anycast]. When a nameserver receives a query from a resolver
// that is not in the loyalty filter, the query is assigned a penalty."
// An attacker must therefore be routed to the same PoP as the resolver
// it is impersonating — on top of spoofing its address and IP TTL.
//
// The loyal set ages out slowly: membership is refreshed by traffic and
// entries unused for `expiry` are dropped, modelling "consistent over
// several days" (Figure 4).
#pragma once

#include <unordered_map>

#include "filters/filter.hpp"

namespace akadns::filters {

class LoyaltyFilter : public Filter {
 public:
  struct Config {
    double penalty = 40.0;
    /// Queries from one source within `ripen_after` of first sight do not
    /// yet count as loyal (prevents an attacker from becoming loyal
    /// during the attack itself).
    Duration ripen_after = Duration::hours(1);
    /// Entries idle longer than this are forgotten.
    Duration expiry = Duration::days(14);
    std::size_t max_tracked_sources = 1'000'000;
  };

  explicit LoyaltyFilter(Config config);

  std::string_view name() const noexcept override { return "loyalty"; }
  double score(const QueryContext& ctx) override;

  /// Seeds membership from history (first_seen backdated so the source is
  /// immediately loyal).
  void learn(const IpAddr& source, SimTime seen_at);

  bool is_loyal(const IpAddr& source, SimTime now) const;
  std::size_t tracked_sources() const noexcept { return sources_.size(); }
  std::uint64_t total_penalized() const noexcept { return penalized_; }

 private:
  struct Membership {
    SimTime first_seen;
    SimTime last_seen;
  };

  Config config_;
  std::unordered_map<IpAddr, Membership> sources_;
  std::uint64_t penalized_ = 0;
};

}  // namespace akadns::filters

// Fluent zone construction for tests, examples and the workload
// generators (which synthesize many enterprise zones).
#pragma once

#include <string_view>

#include "zone/zone.hpp"

namespace akadns::zone {

class ZoneBuilder {
 public:
  /// Starts a zone at `apex` with a default SOA (serial 1).
  explicit ZoneBuilder(std::string_view apex, std::uint32_t serial = 1);

  ZoneBuilder& soa(std::string_view mname, std::string_view rname, std::uint32_t serial,
                   std::uint32_t ttl = 3600, std::uint32_t minimum = 300);
  ZoneBuilder& ns(std::string_view owner, std::string_view nameserver, std::uint32_t ttl = 86400);
  ZoneBuilder& a(std::string_view owner, std::string_view address, std::uint32_t ttl = 300);
  ZoneBuilder& aaaa(std::string_view owner, std::string_view address, std::uint32_t ttl = 300);
  ZoneBuilder& cname(std::string_view owner, std::string_view target, std::uint32_t ttl = 300);
  ZoneBuilder& txt(std::string_view owner, std::string_view text, std::uint32_t ttl = 300);
  ZoneBuilder& mx(std::string_view owner, std::uint16_t pref, std::string_view exchange,
                  std::uint32_t ttl = 3600);
  ZoneBuilder& record(ResourceRecord rr);

  /// Finalizes. Throws std::invalid_argument if any record was rejected.
  Zone build();

 private:
  /// Resolves owner relative to the apex ("@" or "" = apex; trailing dot
  /// = absolute).
  DnsName owner_name(std::string_view owner) const;

  Zone zone_;
  bool has_soa_ = false;
  std::vector<std::string> errors_;
};

}  // namespace akadns::zone

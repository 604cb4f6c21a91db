#include "zone/zone_builder.hpp"

#include <stdexcept>

namespace akadns::zone {

using dns::DnsName;

ZoneBuilder::ZoneBuilder(std::string_view apex, std::uint32_t serial)
    : zone_(DnsName::from(apex), serial) {}

DnsName ZoneBuilder::owner_name(std::string_view owner) const {
  if (owner.empty() || owner == "@") return zone_.apex();
  if (owner.back() == '.') return DnsName::from(owner);
  const auto relative = DnsName::parse(owner);
  if (!relative) throw std::invalid_argument("bad owner name: " + std::string(owner));
  const auto full = relative->concat(zone_.apex());
  if (!full) throw std::invalid_argument("owner name too long: " + std::string(owner));
  return *full;
}

ZoneBuilder& ZoneBuilder::soa(std::string_view mname, std::string_view rname,
                              std::uint32_t serial, std::uint32_t ttl, std::uint32_t minimum) {
  record(dns::make_soa(zone_.apex(), DnsName::from(mname), DnsName::from(rname), serial, ttl,
                       minimum));
  has_soa_ = true;
  return *this;
}

ZoneBuilder& ZoneBuilder::ns(std::string_view owner, std::string_view nameserver,
                             std::uint32_t ttl) {
  return record(dns::make_ns(owner_name(owner), DnsName::from(nameserver), ttl));
}

ZoneBuilder& ZoneBuilder::a(std::string_view owner, std::string_view address, std::uint32_t ttl) {
  const auto addr = Ipv4Addr::parse(address);
  if (!addr) throw std::invalid_argument("bad IPv4: " + std::string(address));
  return record(dns::make_a(owner_name(owner), *addr, ttl));
}

ZoneBuilder& ZoneBuilder::aaaa(std::string_view owner, std::string_view address,
                               std::uint32_t ttl) {
  const auto addr = Ipv6Addr::parse(address);
  if (!addr) throw std::invalid_argument("bad IPv6: " + std::string(address));
  return record(dns::make_aaaa(owner_name(owner), *addr, ttl));
}

ZoneBuilder& ZoneBuilder::cname(std::string_view owner, std::string_view target,
                                std::uint32_t ttl) {
  return record(dns::make_cname(owner_name(owner), DnsName::from(target), ttl));
}

ZoneBuilder& ZoneBuilder::txt(std::string_view owner, std::string_view text, std::uint32_t ttl) {
  return record(dns::make_txt(owner_name(owner), std::string(text), ttl));
}

ZoneBuilder& ZoneBuilder::mx(std::string_view owner, std::uint16_t pref,
                             std::string_view exchange, std::uint32_t ttl) {
  return record(
      ResourceRecord{owner_name(owner), dns::RecordClass::IN, ttl,
                     dns::MxRecord{pref, DnsName::from(exchange)}});
}

ZoneBuilder& ZoneBuilder::record(ResourceRecord rr) {
  const std::string description = rr.to_string();
  if (!zone_.add(std::move(rr))) {
    errors_.push_back("record rejected: " + description);
  }
  return *this;
}

Zone ZoneBuilder::build() {
  if (!errors_.empty()) {
    std::string joined;
    for (const auto& e : errors_) joined += e + "; ";
    throw std::invalid_argument("ZoneBuilder: " + joined);
  }
  if (!has_soa_ && !zone_.soa()) {
    // Supply a default SOA so ad-hoc test zones are well-formed.
    auto apex = zone_.apex();
    const auto mname = DnsName::from("ns1").concat(apex);
    const auto rname = DnsName::from("hostmaster").concat(apex);
    zone_.add(dns::make_soa(apex, mname.value_or(apex), rname.value_or(apex), zone_.serial(),
                            3600, 300));
  }
  return std::move(zone_);
}

}  // namespace akadns::zone

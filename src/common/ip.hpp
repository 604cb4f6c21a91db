// IP address and prefix value types.
//
// The simulators route real-looking addresses: anycast prefixes are
// advertised per cloud, resolvers have source IPv4/IPv6 addresses, ECMP
// hashes 5-tuples, and filters key state by source address. We implement
// compact value types for v4/v6 addresses and CIDR prefixes with parsing
// and formatting.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace akadns {

/// IPv4 address stored host-order for arithmetic convenience.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() noexcept = default;
  explicit constexpr Ipv4Addr(std::uint32_t host_order) noexcept : value_(host_order) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) noexcept
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) | (std::uint32_t{c} << 8) | d) {}

  static std::optional<Ipv4Addr> parse(std::string_view text);

  constexpr std::uint32_t value() const noexcept { return value_; }
  std::array<std::uint8_t, 4> octets() const noexcept;
  std::string to_string() const;

  constexpr auto operator<=>(const Ipv4Addr&) const noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

/// IPv6 address stored as 16 bytes, network order.
class Ipv6Addr {
 public:
  constexpr Ipv6Addr() noexcept = default;
  explicit constexpr Ipv6Addr(std::array<std::uint8_t, 16> bytes) noexcept : bytes_(bytes) {}

  /// Builds from 8 hextets (host order), e.g. {0x2001, 0xdb8, ...}.
  static Ipv6Addr from_hextets(const std::array<std::uint16_t, 8>& h) noexcept;

  /// Parses full and "::"-compressed textual form (no zone ids).
  static std::optional<Ipv6Addr> parse(std::string_view text);

  /// Maps an IPv4 address into a deterministic test IPv6 (2001:db8::/96).
  static Ipv6Addr from_v4_mapped(Ipv4Addr v4) noexcept;

  const std::array<std::uint8_t, 16>& bytes() const noexcept { return bytes_; }
  std::string to_string() const;  // RFC 5952 canonical form

  constexpr auto operator<=>(const Ipv6Addr&) const noexcept = default;

 private:
  std::array<std::uint8_t, 16> bytes_{};
};

/// Either an IPv4 or IPv6 address.
class IpAddr {
 public:
  constexpr IpAddr() noexcept : is_v6_(false), v4_{}, v6_{} {}
  constexpr IpAddr(Ipv4Addr v4) noexcept : is_v6_(false), v4_(v4), v6_{} {}  // NOLINT implicit
  constexpr IpAddr(Ipv6Addr v6) noexcept : is_v6_(true), v4_{}, v6_(v6) {}   // NOLINT implicit

  static std::optional<IpAddr> parse(std::string_view text);

  constexpr bool is_v4() const noexcept { return !is_v6_; }
  constexpr bool is_v6() const noexcept { return is_v6_; }
  constexpr Ipv4Addr v4() const noexcept { return v4_; }
  constexpr Ipv6Addr v6() const noexcept { return v6_; }

  std::string to_string() const { return is_v6_ ? v6_.to_string() : v4_.to_string(); }

  /// Stable 64-bit hash (used as map key and for ECMP tuple hashing).
  std::uint64_t hash() const noexcept;

  constexpr auto operator<=>(const IpAddr&) const noexcept = default;

 private:
  bool is_v6_;
  Ipv4Addr v4_;
  Ipv6Addr v6_;
};

/// CIDR prefix over either family.
class IpPrefix {
 public:
  IpPrefix() noexcept = default;
  IpPrefix(IpAddr base, std::uint8_t length);

  /// Parses "a.b.c.d/len" or "v6::/len".
  static std::optional<IpPrefix> parse(std::string_view text);

  bool contains(const IpAddr& addr) const noexcept;
  const IpAddr& base() const noexcept { return base_; }
  std::uint8_t length() const noexcept { return length_; }

  /// The i-th host address inside the prefix (for synthesizing endpoints).
  IpAddr host(std::uint64_t i) const;

  auto operator<=>(const IpPrefix&) const noexcept = default;

 private:
  IpAddr base_;
  std::uint8_t length_ = 0;
};

/// Transport endpoint (address + UDP port); DNS queries carry a source
/// endpoint and ECMP hashes the full tuple.
struct Endpoint {
  IpAddr addr;
  std::uint16_t port = 0;

  /// "A.B.C.D:P" with P in [1, 65535], the whole string; nullopt
  /// otherwise.
  static std::optional<Endpoint> parse(std::string_view text);

  auto operator<=>(const Endpoint&) const noexcept = default;
  std::string to_string() const { return addr.to_string() + ":" + std::to_string(port); }
};

}  // namespace akadns

template <>
struct std::hash<akadns::IpAddr> {
  std::size_t operator()(const akadns::IpAddr& a) const noexcept {
    return static_cast<std::size_t>(a.hash());
  }
};

template <>
struct std::hash<akadns::Endpoint> {
  std::size_t operator()(const akadns::Endpoint& e) const noexcept {
    return static_cast<std::size_t>(e.addr.hash() * 0x9e3779b97f4a7c15ULL + e.port);
  }
};

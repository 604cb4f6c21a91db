#include "common/ip.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "common/strings.hpp"

namespace akadns {
namespace {

std::optional<std::uint32_t> parse_decimal(std::string_view s, std::uint32_t max) {
  if (s.empty() || s.size() > 10) return std::nullopt;
  std::uint32_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || v > max) return std::nullopt;
  return v;
}

std::optional<std::uint16_t> parse_hextet(std::string_view s) {
  if (s.empty() || s.size() > 4) return std::nullopt;
  std::uint16_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  std::array<std::uint32_t, 4> parts{};
  std::size_t idx = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      if (idx >= 4) return std::nullopt;
      const auto part = parse_decimal(text.substr(start, i - start), 255);
      if (!part) return std::nullopt;
      parts[idx++] = *part;
      start = i + 1;
    }
  }
  if (idx != 4) return std::nullopt;
  return Ipv4Addr(static_cast<std::uint8_t>(parts[0]), static_cast<std::uint8_t>(parts[1]),
                  static_cast<std::uint8_t>(parts[2]), static_cast<std::uint8_t>(parts[3]));
}

std::array<std::uint8_t, 4> Ipv4Addr::octets() const noexcept {
  return {static_cast<std::uint8_t>(value_ >> 24), static_cast<std::uint8_t>(value_ >> 16),
          static_cast<std::uint8_t>(value_ >> 8), static_cast<std::uint8_t>(value_)};
}

std::string Ipv4Addr::to_string() const {
  const auto o = octets();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", o[0], o[1], o[2], o[3]);
  return buf;
}

Ipv6Addr Ipv6Addr::from_hextets(const std::array<std::uint16_t, 8>& h) noexcept {
  std::array<std::uint8_t, 16> b{};
  for (std::size_t i = 0; i < 8; ++i) {
    b[2 * i] = static_cast<std::uint8_t>(h[i] >> 8);
    b[2 * i + 1] = static_cast<std::uint8_t>(h[i]);
  }
  return Ipv6Addr(b);
}

std::optional<Ipv6Addr> Ipv6Addr::parse(std::string_view text) {
  // Split on "::" into left and right halves; each half is ':'-separated
  // hextets. Embedded IPv4 tails are not supported (not needed here).
  std::array<std::uint16_t, 8> hextets{};
  const auto dc = text.find("::");
  auto parse_groups = [](std::string_view part, std::array<std::uint16_t, 8>& out,
                         std::size_t& count) -> bool {
    count = 0;
    if (part.empty()) return true;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= part.size(); ++i) {
      if (i == part.size() || part[i] == ':') {
        if (count >= 8) return false;
        const auto h = parse_hextet(part.substr(start, i - start));
        if (!h) return false;
        out[count++] = *h;
        start = i + 1;
      }
    }
    return true;
  };
  if (dc == std::string_view::npos) {
    std::size_t count = 0;
    if (!parse_groups(text, hextets, count) || count != 8) return std::nullopt;
    return from_hextets(hextets);
  }
  std::array<std::uint16_t, 8> left{}, right{};
  std::size_t nleft = 0, nright = 0;
  if (!parse_groups(text.substr(0, dc), left, nleft)) return std::nullopt;
  if (!parse_groups(text.substr(dc + 2), right, nright)) return std::nullopt;
  if (nleft + nright > 7) return std::nullopt;  // "::" must elide >= 1 group
  std::array<std::uint16_t, 8> full{};
  for (std::size_t i = 0; i < nleft; ++i) full[i] = left[i];
  for (std::size_t i = 0; i < nright; ++i) full[8 - nright + i] = right[i];
  return from_hextets(full);
}

Ipv6Addr Ipv6Addr::from_v4_mapped(Ipv4Addr v4) noexcept {
  std::array<std::uint8_t, 16> b{};
  b[0] = 0x20;
  b[1] = 0x01;
  b[2] = 0x0d;
  b[3] = 0xb8;
  const auto o = v4.octets();
  std::copy(o.begin(), o.end(), b.begin() + 12);
  return Ipv6Addr(b);
}

std::string Ipv6Addr::to_string() const {
  std::array<std::uint16_t, 8> h{};
  for (std::size_t i = 0; i < 8; ++i) {
    h[i] = static_cast<std::uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
  }
  // RFC 5952: compress the longest run of >= 2 zero hextets.
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (h[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && h[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;
  std::string out;
  char buf[8];
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      if (i >= 8) break;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof(buf), "%x", h[static_cast<std::size_t>(i)]);
    out += buf;
    ++i;
  }
  if (out.empty()) out = "::";
  return out;
}

std::optional<IpAddr> IpAddr::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    if (auto v6 = Ipv6Addr::parse(text)) return IpAddr(*v6);
    return std::nullopt;
  }
  if (auto v4 = Ipv4Addr::parse(text)) return IpAddr(*v4);
  return std::nullopt;
}

std::optional<Endpoint> Endpoint::parse(std::string_view text) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Addr::parse(text.substr(0, colon));
  const auto port = parse_number<std::uint16_t>(text.substr(colon + 1), 1);
  if (!addr || !port) return std::nullopt;
  return Endpoint{IpAddr(*addr), *port};
}

std::uint64_t IpAddr::hash() const noexcept {
  // FNV-1a over the address bytes plus a family tag.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  mix(is_v6_ ? 6 : 4);
  if (is_v6_) {
    for (auto b : v6_.bytes()) mix(b);
  } else {
    for (auto b : v4_.octets()) mix(b);
  }
  return h;
}

IpPrefix::IpPrefix(IpAddr base, std::uint8_t length) : base_(base), length_(length) {
  const std::uint8_t max_len = base.is_v6() ? 128 : 32;
  if (length > max_len) throw std::invalid_argument("prefix length out of range");
}

std::optional<IpPrefix> IpPrefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = IpAddr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const auto len = parse_decimal(text.substr(slash + 1), addr->is_v6() ? 128 : 32);
  if (!len) return std::nullopt;
  return IpPrefix(*addr, static_cast<std::uint8_t>(*len));
}

bool IpPrefix::contains(const IpAddr& addr) const noexcept {
  if (addr.is_v6() != base_.is_v6()) return false;
  if (length_ == 0) return true;
  if (!addr.is_v6()) {
    const std::uint32_t mask = length_ >= 32 ? ~0U : ~((1U << (32 - length_)) - 1);
    return (addr.v4().value() & mask) == (base_.v4().value() & mask);
  }
  const auto a = addr.v6().bytes();
  const auto b = base_.v6().bytes();
  std::size_t full = length_ / 8;
  if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(full), b.begin())) {
    return false;
  }
  const std::size_t rem = length_ % 8;
  if (rem == 0) return true;
  const auto mask = static_cast<std::uint8_t>(0xFF << (8 - rem));
  return (a[full] & mask) == (b[full] & mask);
}

IpAddr IpPrefix::host(std::uint64_t i) const {
  if (!base_.is_v6()) {
    const std::uint32_t host_bits = 32 - length_;
    const std::uint64_t span = host_bits >= 32 ? (1ULL << 32) : (1ULL << host_bits);
    return IpAddr(Ipv4Addr(base_.v4().value() + static_cast<std::uint32_t>(i % span)));
  }
  auto bytes = base_.v6().bytes();
  // Add i into the low 64 bits (sufficient for all simulated populations).
  std::uint64_t low = 0;
  for (std::size_t k = 8; k < 16; ++k) low = (low << 8) | bytes[k];
  low += i;
  for (std::size_t k = 16; k-- > 8;) {
    bytes[k] = static_cast<std::uint8_t>(low);
    low >>= 8;
  }
  return IpAddr(Ipv6Addr(bytes));
}

}  // namespace akadns

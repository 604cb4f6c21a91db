// Small string helpers shared across modules (ASCII-only, as DNS is).
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace akadns {

/// ASCII lowercase (DNS names compare case-insensitively, RFC 1035 §2.3.3).
char ascii_lower(char c) noexcept;
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string_view> split_whitespace(std::string_view s);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept;

std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// FNV-1a 64-bit hash of a byte string (stable across platforms).
std::uint64_t fnv1a(std::string_view s) noexcept;

/// Parses the whole of `text` as a base-10 number in [lo, hi]. Empty
/// text, a leading '+' or space, trailing bytes, overflow, NaN and
/// out-of-range values are all rejected, so "70000" is no port and "5x"
/// is not 5. For command-line flags: a bad value is a usage error.
template <typename T>
std::optional<T> parse_number(std::string_view text,
                              T lo = std::numeric_limits<T>::lowest(),
                              T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace akadns

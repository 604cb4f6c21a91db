// Command-line flags declared once. Each entry binds a flag's name, its
// metavar and its help text to the field it sets, and the same table
// parses argv strictly and prints --help. A default is rendered from the
// bound field when the entry is declared, so it is never typed twice:
//
//   net::ServeConfig config;
//   config.port = 5300;
//   FlagTable flags("akadns-serve", "[options]", kEpilogue);
//   flags.number("--port", "P", config.port, "UDP+TCP port, 0 = ephemeral")
//       .on_off("--defense", config.defense.enabled, "score and queue queries");
//   if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
//
// Values are checked as they are read: a number is the whole string and
// in range (parse_number), an address or name must parse, so a bad value
// is a usage error before the program does any work.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"
#include "common/strings.hpp"

namespace akadns {

namespace flag_detail {

template <typename T>
struct Unwrap {
  using type = T;
};
template <typename T>
struct Unwrap<std::optional<T>> {
  using type = T;
};

/// One value of type T: a string as itself, anything else through
/// T::parse(text) -> std::optional<T> (Ipv4Addr, Endpoint, dns::DnsName).
template <typename T>
std::optional<T> parse_value(std::string_view text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(text);
  } else {
    return T::parse(text);
  }
}

std::string render_double(double value);

/// A field's value as help prints it; empty means "no default to show".
template <typename T>
std::string render(const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_floating_point_v<T>) {
    return render_double(value);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return std::to_string(value);
  } else {
    return value.to_string();
  }
}
template <typename T>
std::string render(const std::optional<T>& value) {
  return value ? render(*value) : std::string();
}
template <typename T>
std::string render(const std::vector<T>& values) {
  std::vector<std::string> parts;
  for (const T& value : values) parts.push_back(render(value));
  return join(parts, ",");
}

}  // namespace flag_detail

class FlagTable {
 public:
  /// One entry. A flag with an empty metavar takes no value.
  struct Flag {
    std::string name;
    std::string metavar;
    std::string help;
    /// Printed as "(default …)" after the help; empty prints nothing.
    std::string default_text;
    /// Reads the value into the bound field; false means a bad value.
    std::function<bool(std::string_view)> set;
  };

  /// `program` and `synopsis` make the usage line; `epilogue` is the
  /// binary's own prose (ready line, signals, exit codes) after the flags.
  FlagTable(std::string program, std::string synopsis, std::string epilogue);

  FlagTable& add(Flag flag);

  /// --name N: the whole value as a number in [lo, hi]. `T` may be
  /// std::optional<N> for a setting that stays off until it is given.
  template <typename T, typename N = typename flag_detail::Unwrap<T>::type>
  FlagTable& number(std::string name, std::string metavar, T& field, std::string help,
                    std::type_identity_t<N> lo = std::numeric_limits<N>::lowest(),
                    std::type_identity_t<N> hi = std::numeric_limits<N>::max()) {
    return add({std::move(name), std::move(metavar), std::move(help),
                flag_detail::render(field), [&field, lo, hi](std::string_view text) {
                  const auto value = parse_number<N>(text, lo, hi);
                  if (value) field = *value;
                  return value.has_value();
                }});
  }

  /// --name T: whole milliseconds in [lo_ms, hi_ms] into a Duration.
  FlagTable& millis(std::string name, std::string metavar, Duration& field, std::string help,
                    std::int64_t lo_ms = 0,
                    std::int64_t hi_ms = Duration::max().count_nanos() / 1'000'000);

  /// --name on|off.
  FlagTable& on_off(std::string name, bool& field, std::string help);

  /// --name without a value: sets the field to true.
  FlagTable& set_true(std::string name, bool& field, std::string help);

  /// --name V: a string, an Ipv4Addr, an Endpoint or a dns::DnsName (any
  /// T with parse and to_string). `T` may be std::optional.
  template <typename T, typename V = typename flag_detail::Unwrap<T>::type>
  FlagTable& value(std::string name, std::string metavar, T& field, std::string help) {
    return add({std::move(name), std::move(metavar), std::move(help),
                flag_detail::render(field), [&field](std::string_view text) {
                  auto value = flag_detail::parse_value<V>(text);
                  if (value) field = std::move(*value);
                  return value.has_value();
                }});
  }

  /// Repeatable --name V: each use appends one value. The first use
  /// replaces the field's initial contents, which help shows as the default.
  template <typename T>
  FlagTable& list(std::string name, std::string metavar, std::vector<T>& field,
                  std::string help) {
    return add({std::move(name), std::move(metavar), std::move(help) + " (repeatable)",
                flag_detail::render(field),
                [&field, first = true](std::string_view text) mutable {
                  auto value = flag_detail::parse_value<T>(text);
                  if (!value) return false;
                  if (std::exchange(first, false)) field.clear();
                  field.push_back(std::move(*value));
                  return true;
                }});
  }

  /// Parses argv[1..] in order. Returns nullopt when the program should
  /// run on, else the exit code to return at once: 0 after printing help
  /// for --help/-h, 2 after a usage error.
  std::optional<int> parse(int argc, const char* const* argv) const;

  /// For the checks a program makes after parse(): prints `message` and
  /// the usage line on stderr and returns 2, the usage-error exit code.
  int usage_error(std::string_view message) const;

  /// The --help text: usage line, one entry per flag, then the epilogue.
  std::string help() const;

 private:
  std::string program_;
  std::string synopsis_;
  std::string epilogue_;
  std::vector<Flag> flags_;
};

}  // namespace akadns

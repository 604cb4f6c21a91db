#include "chaos/fault_plan.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"

namespace akadns::chaos {

namespace {

/// The largest millisecond count a Duration holds.
constexpr std::int64_t kMaxMillis = Duration::max().count_nanos() / 1'000'000;

/// One FaultSpec key: a probability or a whole-millisecond duration.
/// parse() and to_string() both read this table, in this order.
struct SpecKey {
  const char* name;
  double FaultSpec::*probability;
  Duration FaultSpec::*millis;
};

constexpr SpecKey kSpecKeys[] = {
    {"loss", &FaultSpec::loss, nullptr},
    {"dup", &FaultSpec::dup, nullptr},
    {"reorder", &FaultSpec::reorder, nullptr},
    {"corrupt", &FaultSpec::corrupt, nullptr},
    {"tcp_reset", &FaultSpec::tcp_reset, nullptr},
    {"tcp_stall", &FaultSpec::tcp_stall, nullptr},
    {"delay_ms", nullptr, &FaultSpec::delay},
    {"jitter_ms", nullptr, &FaultSpec::jitter},
};

Error bad_value(std::string_view key, const char* want, std::string_view value) {
  return Error{std::string(key) + ": want " + want + ", got '" + std::string(value) + "'"};
}

/// Applies `field=value` to the specs `key`'s direction prefix names.
Result<bool> apply_spec_key(FaultPlan& plan, std::string_view key, std::string_view value) {
  const std::size_t dot = key.find('.');
  if (dot == std::string_view::npos) return Error{"unknown plan key: " + std::string(key)};
  const std::string_view dir = key.substr(0, dot);
  const std::string_view field = key.substr(dot + 1);
  if (dir != "up" && dir != "down" && dir != "both") {
    return Error{"unknown direction prefix (want up/down/both): " + std::string(key)};
  }
  const auto assign = [&](auto FaultSpec::*member, auto v) {
    if (dir != "down") plan.up.*member = v;
    if (dir != "up") plan.down.*member = v;
  };
  for (const SpecKey& k : kSpecKeys) {
    if (field != k.name) continue;
    if (k.probability) {
      const auto p = parse_number<double>(value, 0.0, 1.0);
      if (!p) return bad_value(key, "a probability in [0,1]", value);
      assign(k.probability, *p);
    } else {
      const auto ms = parse_number<std::int64_t>(value, 0, kMaxMillis);
      if (!ms) return bad_value(key, "whole milliseconds >= 0", value);
      assign(k.millis, Duration::millis(*ms));
    }
    return true;
  }
  return Error{"unknown fault field: " + std::string(key)};
}

}  // namespace

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  int line_no = 0;
  for (std::string_view line : split(text, '\n')) {
    ++line_no;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Error{"plan line " + std::to_string(line_no) + ": expected key=value"};
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));

    if (key == "seed") {
      const auto seed = parse_number<std::uint64_t>(value);
      if (!seed) return bad_value(key, "an unsigned integer", value);
      plan.seed = *seed;
    } else if (key == "blackhole") {
      const std::size_t colon = value.find(':');
      const auto start = parse_number<std::int64_t>(trim(value.substr(0, colon)), 0, kMaxMillis);
      const auto end = colon == std::string_view::npos
                           ? std::nullopt
                           : parse_number<std::int64_t>(trim(value.substr(colon + 1)), 0,
                                                        kMaxMillis);
      if (!start || !end || *end <= *start) {
        return bad_value(key, "START_MS:END_MS with 0 <= start < end", value);
      }
      plan.blackholes.push_back({Duration::millis(*start), Duration::millis(*end)});
    } else if (auto applied = apply_spec_key(plan, key, value); !applied) {
      return Error{std::move(applied).error()};
    }
  }
  return plan;
}

Result<FaultPlan> FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Error{"cannot open chaos plan: " + path};
  std::ostringstream contents;
  contents << in.rdbuf();
  return parse(contents.str());
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  out << "seed=" << seed << "\n";
  for (const auto& [prefix, spec] : {std::pair{"up", &up}, std::pair{"down", &down}}) {
    for (const SpecKey& k : kSpecKeys) {
      if (k.probability && spec->*k.probability > 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s.%s=%g\n", prefix, k.name, spec->*k.probability);
        out << buf;
      } else if (k.millis && (spec->*k.millis).count_nanos() > 0) {
        out << prefix << "." << k.name << "=" << (spec->*k.millis).count_nanos() / 1'000'000
            << "\n";
      }
    }
  }
  for (const BlackholeWindow& w : blackholes) {
    out << "blackhole=" << w.start.count_nanos() / 1'000'000 << ":"
        << w.end.count_nanos() / 1'000'000 << "\n";
  }
  return out.str();
}

}  // namespace akadns::chaos

// Stats tables: one declaration per metric series.
//
// A stats struct that feeds the registry lists its series once, in a
// static table `kSeries` whose rows name a family, a label value and the
// member the series reads. Two walks over a table are the only code
// between the struct and its series: register_series binds the members
// into a MetricRegistry under a base label set, and read_series fills a
// fresh struct back from a MetricsSnapshot or a parsed Exposition. So a
// new series is one row, and every reader sees it.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/drop_reason.hpp"
#include "obs/exposition.hpp"
#include "obs/registry.hpp"

namespace akadns::obs {

/// A family as a table declares it. `key` is the label that tells its
/// series apart (empty: the base labels alone name the one series);
/// `agg` applies to gauges.
struct FamilySpec {
  std::string_view name;
  std::string_view key;
  std::string_view help;
  GaugeAgg agg = GaugeAgg::Sum;
};

/// The series family{key=value} reads `member`. A DropCounters member is
/// one series per DropReason, the reason's name as the key's value.
template <typename S>
struct SeriesRow {
  FamilySpec family;
  std::string_view value;
  std::variant<Counter S::*, Gauge S::*, DropCounters S::*> member;
};

/// Where each layer counts the drops it decides (the defense engine has
/// its own family).
inline constexpr FamilySpec kDropsFamily{"akadns_drops_total", "reason",
                                         "packets dropped, by taxonomy reason"};

inline LabelSet series_labels(const LabelSet& base, const FamilySpec& family,
                              std::string_view value) {
  return family.key.empty() ? base : with(base, std::string(family.key), std::string(value));
}

inline void register_drop_counters(MetricRegistry& reg, const FamilySpec& family,
                                   const DropCounters& drops, const LabelSet& base) {
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const auto reason = static_cast<DropReason>(i);
    reg.counter(family.name, series_labels(base, family, to_string(reason)),
                drops.counter(reason), family.help);
  }
}

/// Adds each reason's sum over the samples whose labels include `filter`
/// into `drops` (adding, so two families can fold into one taxonomy).
template <typename Source>
void read_drop_counters(const Source& src, const FamilySpec& family, const LabelSet& filter,
                        DropCounters& drops) {
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const auto reason = static_cast<DropReason>(i);
    drops.add(reason, static_cast<std::uint64_t>(src.sum(
                          family.name, series_labels(filter, family, to_string(reason)))));
  }
}

/// Registers every row of S::kSeries for `stats` under `base`. The
/// instruments are referenced in place: `stats` must outlive `reg`.
template <typename S>
void register_series(MetricRegistry& reg, const LabelSet& base, const S& stats) {
  for (const SeriesRow<S>& row : S::kSeries) {
    const FamilySpec& f = row.family;
    if (const auto* c = std::get_if<Counter S::*>(&row.member)) {
      reg.counter(f.name, series_labels(base, f, row.value), stats.**c, f.help);
    } else if (const auto* g = std::get_if<Gauge S::*>(&row.member)) {
      reg.gauge(f.name, series_labels(base, f, row.value), stats.**g, f.agg, f.help);
    } else {
      register_drop_counters(reg, f, stats.*std::get<DropCounters S::*>(row.member), base);
    }
  }
}

/// An S read back from `src` (a MetricsSnapshot or an Exposition): each
/// counter sums, and each gauge combines per its GaugeAgg, the row's
/// samples whose labels include `filter` — a worker, a lane, or {} for
/// all. Filtered by the labels it was registered under, a struct reads
/// back equal.
template <typename S, typename Source>
S read_series(const Source& src, const LabelSet& filter = {}) {
  S out;
  for (const SeriesRow<S>& row : S::kSeries) {
    const FamilySpec& f = row.family;
    if (const auto* c = std::get_if<Counter S::*>(&row.member)) {
      out.**c = static_cast<std::uint64_t>(src.sum(f.name, series_labels(filter, f, row.value)));
    } else if (const auto* g = std::get_if<Gauge S::*>(&row.member)) {
      const LabelSet ls = series_labels(filter, f, row.value);
      if constexpr (std::is_same_v<Source, Exposition>) {
        out.**g = f.agg == GaugeAgg::Max ? src.max(f.name, ls) : src.sum(f.name, ls);
      } else {
        out.**g = src.gauge_value(f.name, ls);  // the family carries its agg
      }
    } else {
      read_drop_counters(src, f, filter, out.*std::get<DropCounters S::*>(row.member));
    }
  }
  return out;
}

}  // namespace akadns::obs

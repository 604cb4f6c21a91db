// Rendering and parsing of the registry's wire formats.
//
// Two transports, one registry: the same MetricsSnapshot renders as
// Prometheus-style text exposition (the live /metrics scrape) or as the
// JSON blob akadns-serve prints at shutdown. The parser is the inverse
// of render_prometheus — the loadgen's --stats-url scrape and the CI
// exposition checker both parse with it, so a formatting regression
// fails a test instead of silently corrupting a dashboard.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"

namespace akadns::obs {

/// Prometheus text exposition (v0.0.4 style): # HELP / # TYPE headers,
/// one `name{labels} value` line per sample. Counters render as
/// integers; histograms render summary-style (quantile-labelled lines
/// plus _sum/_count/_min/_max).
std::string render_prometheus(const MetricsSnapshot& snap);

/// The same snapshot as a JSON object keyed by family name.
std::string render_json(const MetricsSnapshot& snap);

struct ParsedSample {
  std::string name;   // full sample name (incl. _sum/_count suffixes)
  LabelSet labels;    // sorted, quantile label included
  double value = 0.0;
};

/// Parsed text exposition. Lookup helpers mirror MetricsSnapshot's so
/// tests can reconcile a scrape against an in-process snapshot.
class Exposition {
 public:
  /// Throws std::runtime_error (with line number) on any malformed line.
  static Exposition parse(std::string_view text);

  bool has(std::string_view name) const noexcept;
  /// Exact (name, labels) lookup; throws std::out_of_range when absent.
  double value(std::string_view name, const LabelSet& ls = {}) const;
  /// Sum over samples of `name` whose labels include every filter entry.
  double sum(std::string_view name, const LabelSet& filter = {}) const noexcept;
  /// Largest value over the same samples (0.0 when none match).
  double max(std::string_view name, const LabelSet& filter = {}) const noexcept;

  const std::vector<ParsedSample>& samples() const noexcept { return samples_; }
  /// Family names seen in # TYPE comments (checker cross-reference).
  const std::vector<std::string>& typed_families() const noexcept { return families_; }

 private:
  std::vector<ParsedSample> samples_;
  std::vector<std::string> families_;
};

}  // namespace akadns::obs

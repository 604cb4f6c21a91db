// Statistics helpers used by the workload models and benchmark harnesses:
// streaming moments, empirical CDFs (optionally weighted), the log-bucketed
// LogHistogram, the skew share of Figure 2 and simple text rendering for
// bench output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace akadns {

/// Streaming mean / min / max.
class StreamingStats {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical distribution with optional per-sample weights.
/// Percentile / CDF queries sort lazily on first access.
class EmpiricalDistribution {
 public:
  void add(double value, double weight = 1.0);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double total_weight() const noexcept { return total_weight_; }

  /// Weighted quantile, q in [0, 1]. Uses the left-continuous inverse CDF.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// Weighted fraction of samples with value <= x.
  double cdf_at(double x) const;

  /// Weighted fraction of samples with value strictly greater than x.
  double fraction_above(double x) const { return 1.0 - cdf_at(x); }

 private:
  void ensure_sorted() const;

  mutable std::vector<std::pair<double, double>> samples_;  // (value, weight)
  mutable bool sorted_ = true;
  double total_weight_ = 0.0;
};

/// Log-bucketed histogram: the plain value type of every distribution in
/// the tree — registry snapshots of obs::Histogram, their merges and
/// quantiles, and offline high-rate recording (the real-socket load
/// generator records one sample per response at hundreds of thousands
/// per second — a sample vector would churn memory). Buckets
/// grow geometrically from `lo`; add() is two flops and an increment,
/// quantile() interpolates within the winning bucket. Values below lo
/// clamp into the first bucket, values beyond the top into the last.
class LogHistogram {
 public:
  /// Covers [lo, lo * growth^bins) — the default spans 100ns to >100s.
  explicit LogHistogram(double lo = 100.0, double growth = 1.08,
                        std::size_t bins = 256);

  /// Rehydrates a histogram from externally accumulated buckets (the
  /// metrics registry snapshots its atomic single-writer histograms into
  /// this form). `sum`/`min`/`max` carry the exact moments alongside the
  /// bucketed counts; total is Σcounts.
  static LogHistogram from_buckets(double lo, double growth,
                                   std::vector<std::uint64_t> counts, double sum,
                                   double min, double max);

  void add(double x) noexcept;
  /// Bulk add: `n` observations of value `x` (bucket rebinning path).
  void add_n(double x, std::uint64_t n) noexcept;
  void merge(const LogHistogram& other);

  std::uint64_t count() const noexcept { return total_; }
  double min() const noexcept { return total_ ? min_ : 0.0; }
  double max() const noexcept { return total_ ? max_ : 0.0; }
  double mean() const noexcept {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }
  double sum() const noexcept { return sum_; }

  /// Quantile estimate, q in [0, 1]; exact to within one bucket's width
  /// (≤ `growth` relative error).
  double quantile(double q) const noexcept;

  // Bucket-layer access (registry snapshot/merge machinery).
  double lo() const noexcept { return lo_; }
  double growth() const noexcept { return growth_; }
  std::size_t bin_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const noexcept { return counts_[i]; }
  /// The bucket a value lands in (clamped to the edge buckets).
  std::size_t bucket_of(double x) const noexcept;

 private:
  double lo_;
  double log_growth_;  // precomputed 1/ln(growth) for bucket lookup
  double growth_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Share of the total weight carried by the heaviest `fraction` of the
/// items, at least one item: Figure 2's "percent of queries for/from
/// percent of zones, ASNs and source IPs". 0 for no weight.
double mass_of_top(std::vector<double> weights, double fraction);

/// Renders a crude ASCII sparkline/bar chart for bench output, e.g.
///   render_bar(0.76, 40) -> "##############################          ".
std::string render_bar(double fraction, std::size_t width);

/// Formats a double with fixed precision (bench table output helper).
std::string fmt(double v, int precision = 3);

/// Formats large counts with thousands separators: 1234567 -> "1,234,567".
std::string fmt_count(std::uint64_t v);

}  // namespace akadns

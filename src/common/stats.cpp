#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace akadns {

void StreamingStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

void EmpiricalDistribution::add(double value, double weight) {
  if (weight <= 0.0) return;
  samples_.emplace_back(value, weight);
  total_weight_ += weight;
  sorted_ = false;
}

void EmpiricalDistribution::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalDistribution::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("quantile of empty distribution");
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * total_weight_;
  double acc = 0.0;
  for (const auto& [v, w] : samples_) {
    acc += w;
    if (acc >= target) return v;
  }
  return samples_.back().first;
}

double EmpiricalDistribution::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  // Binary search on value, then sum weights up to that point would be
  // O(n); precomputing prefix sums each query is also O(n). Queries are
  // sparse in the benches, so a linear pass keeps the code simple.
  double acc = 0.0;
  for (const auto& [v, w] : samples_) {
    if (v > x) break;
    acc += w;
  }
  return acc / total_weight_;
}

LogHistogram::LogHistogram(double lo, double growth, std::size_t bins)
    : lo_(lo), log_growth_(1.0 / std::log(growth)), growth_(growth), counts_(bins, 0) {}

LogHistogram LogHistogram::from_buckets(double lo, double growth,
                                        std::vector<std::uint64_t> counts, double sum,
                                        double min, double max) {
  LogHistogram h(lo, growth, counts.size());
  h.counts_ = std::move(counts);
  for (const auto c : h.counts_) h.total_ += c;
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  return h;
}

std::size_t LogHistogram::bucket_of(double x) const noexcept {
  std::size_t bin = 0;
  if (x > lo_) {
    bin = static_cast<std::size_t>(std::log(x / lo_) * log_growth_);
    if (bin >= counts_.size()) bin = counts_.size() - 1;
  }
  return bin;
}

void LogHistogram::add(double x) noexcept { add_n(x, 1); }

void LogHistogram::add_n(double x, std::uint64_t n) noexcept {
  if (n == 0) return;
  if (total_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  total_ += n;
  sum_ += x * static_cast<double>(n);
  counts_[bucket_of(x)] += n;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (counts_.size() != other.counts_.size() || lo_ != other.lo_ || growth_ != other.growth_) {
    throw std::invalid_argument("LogHistogram::merge: mismatched axes");
  }
  if (other.total_ == 0) return;
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  total_ += other.total_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

double LogHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<double>(total_) * q;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = seen + static_cast<double>(counts_[i]);
    if (next >= target) {
      // Interpolate within the bucket; clamp to the observed extremes so
      // q=0 / q=1 report the true min/max.
      const double bucket_lo = lo_ * std::pow(growth_, static_cast<double>(i));
      const double bucket_hi = bucket_lo * growth_;
      const double frac = counts_[i] ? (target - seen) / static_cast<double>(counts_[i]) : 0.0;
      return std::clamp(bucket_lo + (bucket_hi - bucket_lo) * frac, min_, max_);
    }
    seen = next;
  }
  return max_;
}

double mass_of_top(std::vector<double> weights, double fraction) {
  std::sort(weights.rbegin(), weights.rend());
  double total = 0, top = 0;
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(weights.size())));
  for (std::size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    if (i < k) top += weights[i];
  }
  return total > 0 ? top / total : 0;
}

std::string render_bar(double fraction, std::size_t width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto filled = static_cast<std::size_t>(fraction * static_cast<double>(width) + 0.5);
  std::string bar(filled, '#');
  bar.append(width - filled, ' ');
  return bar;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace akadns

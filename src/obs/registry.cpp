#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace akadns::obs {

// ---------------------------------------------------------------------------
// Histogram (atomic instrument)

Histogram::Histogram(double lo, double growth, std::size_t bins)
    : lo_(lo),
      growth_(growth),
      log_growth_(1.0 / std::log(growth)),
      bins_(bins == 0 ? 1 : bins),
      counts_(new std::atomic<std::uint64_t>[bins_]) {
  for (std::size_t i = 0; i < bins_; ++i) counts_[i].store(0, std::memory_order_relaxed);
}

Histogram::Histogram(const Histogram& o)
    : lo_(o.lo_),
      growth_(o.growth_),
      log_growth_(o.log_growth_),
      bins_(o.bins_),
      counts_(new std::atomic<std::uint64_t>[o.bins_]) {
  for (std::size_t i = 0; i < bins_; ++i) {
    counts_[i].store(o.counts_[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  total_.store(o.total_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_.store(o.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  min_.store(o.min_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  max_.store(o.max_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

Histogram::~Histogram() { delete[] counts_; }

std::size_t Histogram::bucket_index(double x) const noexcept {
  std::size_t bin = 0;
  if (x > lo_) {
    bin = static_cast<std::size_t>(std::log(x / lo_) * log_growth_);
    if (bin >= bins_) bin = bins_ - 1;
  }
  return bin;
}

void Histogram::add(double x) noexcept {
  const std::uint64_t n = total_.load(std::memory_order_relaxed);
  if (n == 0) {
    min_.store(x, std::memory_order_relaxed);
    max_.store(x, std::memory_order_relaxed);
  } else {
    if (x < min_.load(std::memory_order_relaxed)) min_.store(x, std::memory_order_relaxed);
    if (x > max_.load(std::memory_order_relaxed)) max_.store(x, std::memory_order_relaxed);
  }
  sum_.store(sum_.load(std::memory_order_relaxed) + x, std::memory_order_relaxed);
  const std::size_t bin = bucket_index(x);
  counts_[bin].store(counts_[bin].load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  // total_ last: a scraper that sees the new total also sees the bucket.
  total_.store(n + 1, std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const noexcept {
  return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

namespace {

LogHistogram snapshot_histogram(const Histogram& h) {
  std::vector<std::uint64_t> counts(h.bins());
  for (std::size_t i = 0; i < h.bins(); ++i) counts[i] = h.bucket(i);
  return LogHistogram::from_buckets(h.lo(), h.growth(), std::move(counts), h.sum(),
                                    h.min(), h.max());
}

}  // namespace

// ---------------------------------------------------------------------------
// Labels

namespace {

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_key(std::string_view key) {
  if (key.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(key[0])) return false;
  for (const char c : key.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

void normalize(LabelSet& ls) { std::sort(ls.begin(), ls.end()); }

bool contains_all(const LabelSet& ls, const LabelSet& filter) {
  for (const auto& want : filter) {
    if (std::find(ls.begin(), ls.end(), want) == ls.end()) return false;
  }
  return true;
}

}  // namespace

LabelSet labels(std::initializer_list<Label> init) {
  LabelSet ls(init);
  normalize(ls);
  return ls;
}

LabelSet with(LabelSet base, std::string key, std::string value) {
  base.push_back(Label{std::move(key), std::move(value)});
  normalize(base);
  return base;
}

LabelSet with(LabelSet base, std::string key, std::uint64_t value) {
  return with(std::move(base), std::move(key), std::to_string(value));
}

// ---------------------------------------------------------------------------
// MetricRegistry

struct MetricRegistry::Series {
  LabelSet labels;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  std::function<double()> gauge_fn;
  const Histogram* hist = nullptr;
};

struct MetricRegistry::Family {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::Counter;
  GaugeAgg agg = GaugeAgg::Sum;
  std::vector<Series> series;
};

MetricRegistry::MetricRegistry() = default;
MetricRegistry::~MetricRegistry() = default;

MetricRegistry::Family& MetricRegistry::family_for(std::string_view name, MetricKind kind,
                                                   GaugeAgg agg, std::string_view help) {
  if (!valid_name(name)) {
    throw std::invalid_argument("invalid metric name: " + std::string(name));
  }
  for (auto& fam : families_) {
    if (fam.name == name) {
      if (fam.kind != kind) {
        throw std::invalid_argument("metric kind mismatch for " + std::string(name));
      }
      if (kind == MetricKind::Gauge && fam.agg != agg) {
        throw std::invalid_argument("gauge aggregation mismatch for " + std::string(name));
      }
      if (fam.help.empty() && !help.empty()) fam.help = std::string(help);
      return fam;
    }
  }
  Family fam;
  fam.name = std::string(name);
  fam.help = std::string(help);
  fam.kind = kind;
  fam.agg = agg;
  families_.push_back(std::move(fam));
  return families_.back();
}

void MetricRegistry::add_series(std::string_view name, MetricKind kind, GaugeAgg agg,
                                std::string_view help, LabelSet ls, Series series) {
  normalize(ls);
  for (const auto& label : ls) {
    if (!valid_label_key(label.key)) {
      throw std::invalid_argument("invalid label key: " + label.key);
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  Family& fam = family_for(name, kind, agg, help);
  for (const auto& existing : fam.series) {
    if (existing.labels == ls) {
      throw std::invalid_argument("duplicate series for " + std::string(name));
    }
  }
  series.labels = std::move(ls);
  fam.series.push_back(std::move(series));
}

void MetricRegistry::counter(std::string_view name, LabelSet ls, const Counter& c,
                             std::string_view help) {
  Series s;
  s.counter = &c;
  add_series(name, MetricKind::Counter, GaugeAgg::Sum, help, std::move(ls), std::move(s));
}

void MetricRegistry::gauge(std::string_view name, LabelSet ls, const Gauge& g,
                           GaugeAgg agg, std::string_view help) {
  Series s;
  s.gauge = &g;
  add_series(name, MetricKind::Gauge, agg, help, std::move(ls), std::move(s));
}

void MetricRegistry::gauge_fn(std::string_view name, LabelSet ls,
                              std::function<double()> fn, GaugeAgg agg,
                              std::string_view help) {
  Series s;
  s.gauge_fn = std::move(fn);
  add_series(name, MetricKind::Gauge, agg, help, std::move(ls), std::move(s));
}

void MetricRegistry::histogram(std::string_view name, LabelSet ls, const Histogram& h,
                               std::string_view help) {
  Series s;
  s.hist = &h;
  add_series(name, MetricKind::Histogram, GaugeAgg::Sum, help, std::move(ls), std::move(s));
}

MetricsSnapshot MetricRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.families.reserve(families_.size());
  for (const auto& fam : families_) {
    MetricFamily out;
    out.name = fam.name;
    out.help = fam.help;
    out.kind = fam.kind;
    out.agg = fam.agg;
    out.samples.reserve(fam.series.size());
    for (const auto& series : fam.series) {
      Sample sample;
      sample.labels = series.labels;
      switch (fam.kind) {
        case MetricKind::Counter:
          sample.counter = series.counter->value();
          break;
        case MetricKind::Gauge:
          sample.gauge = series.gauge ? series.gauge->value() : series.gauge_fn();
          break;
        case MetricKind::Histogram:
          sample.hist = snapshot_histogram(*series.hist);
          break;
      }
      out.samples.push_back(std::move(sample));
    }
    std::sort(out.samples.begin(), out.samples.end(),
              [](const Sample& a, const Sample& b) { return a.labels < b.labels; });
    snap.families.push_back(std::move(out));
  }
  std::sort(snap.families.begin(), snap.families.end(),
            [](const MetricFamily& a, const MetricFamily& b) { return a.name < b.name; });
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& theirs : other.families) {
    auto it = std::find_if(families.begin(), families.end(),
                           [&](const MetricFamily& f) { return f.name == theirs.name; });
    if (it == families.end()) {
      families.push_back(theirs);
      continue;
    }
    MetricFamily& ours = *it;
    if (ours.kind != theirs.kind) {
      throw std::invalid_argument("snapshot merge kind mismatch for " + ours.name);
    }
    for (const auto& sample : theirs.samples) {
      auto sit = std::find_if(ours.samples.begin(), ours.samples.end(),
                              [&](const Sample& s) { return s.labels == sample.labels; });
      if (sit == ours.samples.end()) {
        ours.samples.push_back(sample);
        continue;
      }
      switch (ours.kind) {
        case MetricKind::Counter:
          sit->counter += sample.counter;
          break;
        case MetricKind::Gauge:
          if (ours.agg == GaugeAgg::Max) {
            sit->gauge = std::max(sit->gauge, sample.gauge);
          } else {
            sit->gauge += sample.gauge;
          }
          break;
        case MetricKind::Histogram:
          sit->hist.merge(sample.hist);
          break;
      }
    }
    std::sort(ours.samples.begin(), ours.samples.end(),
              [](const Sample& a, const Sample& b) { return a.labels < b.labels; });
  }
  std::sort(families.begin(), families.end(),
            [](const MetricFamily& a, const MetricFamily& b) { return a.name < b.name; });
}

const MetricFamily* MetricsSnapshot::family(std::string_view name) const noexcept {
  for (const auto& fam : families) {
    if (fam.name == name) return &fam;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::sum(std::string_view name,
                                   const LabelSet& filter) const noexcept {
  const MetricFamily* fam = family(name);
  if (!fam) return 0;
  std::uint64_t total = 0;
  for (const auto& sample : fam->samples) {
    if (!contains_all(sample.labels, filter)) continue;
    total += fam->kind == MetricKind::Gauge ? static_cast<std::uint64_t>(sample.gauge)
                                            : sample.counter;
  }
  return total;
}

double MetricsSnapshot::gauge_value(std::string_view name,
                                    const LabelSet& filter) const noexcept {
  const MetricFamily* fam = family(name);
  if (!fam) return 0.0;
  double out = 0.0;
  bool seeded = false;
  for (const auto& sample : fam->samples) {
    if (!contains_all(sample.labels, filter)) continue;
    out = !seeded ? sample.gauge
          : fam->agg == GaugeAgg::Max ? std::max(out, sample.gauge)
                                      : out + sample.gauge;
    seeded = true;
  }
  return out;
}

LogHistogram MetricsSnapshot::merged_histogram(std::string_view name,
                                               const LabelSet& filter) const {
  const MetricFamily* fam = family(name);
  if (!fam || fam->kind != MetricKind::Histogram) return LogHistogram{};
  LogHistogram merged;
  bool seeded = false;
  for (const auto& sample : fam->samples) {
    if (!contains_all(sample.labels, filter)) continue;
    if (!seeded) {
      merged = sample.hist;
      seeded = true;
    } else {
      merged.merge(sample.hist);
    }
  }
  return merged;
}

}  // namespace akadns::obs

// Typed metric instruments for the fleet-wide telemetry registry (§3.2's
// continuous Data Collection feed, Figure 5).
//
// The contract every instrument honors is *single-writer, many-reader*:
// each instance is owned by exactly one lane/worker/thread, which mutates
// it with plain (relaxed, non-RMW) stores, while scrapers on other
// threads read with relaxed loads. On mainstream hardware this compiles
// to the same mov/add/mov a plain integer field would — the hot path
// stays lock-free and zero-cost — yet a live /metrics scrape taken
// mid-run is data-race-free (TSan-clean) without stopping or perturbing
// the workers. Cross-instrument consistency is NOT promised mid-run
// (a scrape may see a packet counted as received but not yet responded);
// exact invariants like the conservation check are asserted at quiescent
// points (phase boundaries, post-drain), where every store has landed.
//
// There is exactly one way to add a metric: put a Counter / Gauge /
// Histogram on the owning subsystem's stats struct and register it into
// the MetricRegistry (registry.hpp) under the small static label model
// (subsystem, stage, lane/worker, machine, reason, rcode). A counter or
// gauge is one row of its struct's kSeries table (series.hpp), which
// registers it and reads it back.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace akadns::obs {

/// Monotonic event counter. Drop-in for a std::uint64_t field: supports
/// ++, +=, add(), implicit read conversion, copy (a copy is a plain
/// snapshot value, no longer tied to the writer).
class Counter {
 public:
  constexpr Counter() noexcept = default;
  Counter(std::uint64_t v) noexcept : v_(v) {}
  Counter(const Counter& o) noexcept : v_(o.value()) {}
  Counter& operator=(const Counter& o) noexcept {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  Counter& operator=(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  /// Single-writer increment: load+store, not an atomic RMW — the owner
  /// thread is the only mutator, so no lock prefix is ever paid.
  void add(std::uint64_t n) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  Counter& operator+=(std::uint64_t n) noexcept {
    add(n);
    return *this;
  }
  Counter& operator++() noexcept {
    add(1);
    return *this;
  }

  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const noexcept { return value(); }
  bool operator==(const Counter& o) const noexcept { return value() == o.value(); }
  bool operator==(std::uint64_t v) const noexcept { return value() == v; }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time measurement (queue depth, age, serial). Same
/// single-writer contract as Counter; merge semantics at scrape time are
/// chosen per registration (sum across lanes for depths, max for
/// latency watermarks).
class Gauge {
 public:
  constexpr Gauge() noexcept = default;
  Gauge(double v) noexcept : v_(v) {}
  Gauge(const Gauge& o) noexcept : v_(o.value()) {}
  Gauge& operator=(const Gauge& o) noexcept {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  Gauge& operator=(double v) noexcept {
    set(v);
    return *this;
  }

  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void max_of(double v) noexcept {
    if (v > value()) set(v);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  operator double() const noexcept { return value(); }
  bool operator==(const Gauge& o) const noexcept { return value() == o.value(); }
  bool operator==(double v) const noexcept { return value() == v; }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed distribution with the same axis as common/stats.hpp's
/// LogHistogram (its scrape-time snapshot *is* a LogHistogram), but with
/// single-writer atomic buckets so a live scrape can read it mid-stream.
/// Fixed-size allocation at construction; add() is two flops and four
/// relaxed stores. The registry materializes it via snapshot-to-
/// LogHistogram conversion in registry.cpp (keeping this header
/// dependency-free).
class Histogram {
 public:
  static constexpr std::size_t kDefaultBins = 128;

  /// Covers [lo, lo * growth^bins); values clamp into the edge buckets.
  /// The default axis spans 1..~2.4e8 in ~16% relative-error buckets —
  /// wide enough for byte sizes, batch sizes, and microsecond latencies.
  explicit Histogram(double lo = 1.0, double growth = 1.16,
                     std::size_t bins = kDefaultBins);
  Histogram(const Histogram& o);
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram();

  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return total_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double min() const noexcept;
  double max() const noexcept;
  double lo() const noexcept { return lo_; }
  double growth() const noexcept { return growth_; }
  std::size_t bins() const noexcept { return bins_; }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }

 private:
  std::size_t bucket_index(double x) const noexcept;

  double lo_;
  double growth_;
  double log_growth_;  // 1/ln(growth), precomputed for bucket lookup
  std::size_t bins_;
  std::atomic<std::uint64_t>* counts_;  // fixed array, sized bins_
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

}  // namespace akadns::obs

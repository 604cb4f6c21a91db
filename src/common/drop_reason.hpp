// Unified drop-reason taxonomy for the per-query datapath.
//
// The paper's capacity analysis (Figure 10, regions A > A1 / A > A2) and
// the filter pipeline (§4.3.3) both hinge on knowing exactly *where* a
// packet died. The seed code recorded drops in four disjoint stat structs
// with no common vocabulary; every datapath stage now accounts its drops
// against this single enum so `packets_received == responses_sent +
// Σ drops-by-reason` holds exactly (the conservation invariant the
// integration tests assert).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/instruments.hpp"

namespace akadns {

enum class DropReason : std::uint8_t {
  NotRunning,    // instance crashed or self-suspended; stack discards input
  IoOverload,    // NIC/kernel saturation, below the application (Fig. 10, A > A2)
  Malformed,     // wire failed the once-only decode; unanswerable
  Firewall,      // query-of-death rule hit (§4.2.4)
  ScoreDiscard,  // filter score S >= Smax: definitively malicious (§4.3.3)
  QueueFull,     // penalty-queue tail drop (finite socket/app buffers)
  QueryOfDeath,  // the packet crashed the instance mid-processing
  RestartFlush,  // in-flight queries lost when a crashed instance restarts
  NicFailure,    // machine-level loss from injected hardware failures (pop layer)
  kCount,
};

inline constexpr std::size_t kDropReasonCount = static_cast<std::size_t>(DropReason::kCount);

std::string_view to_string(DropReason reason) noexcept;

/// Per-reason drop counters; one instance per datapath owner (nameserver
/// lane, defense-engine lane, machine), each counting only the reasons it
/// decides. Each slot is a registry instrument
/// (obs::Counter, single-writer atomic), so an owner registers its
/// counters once and a live scrape reads them without copying — merged
/// fleet views come from MetricsSnapshot, not from struct merging.
class DropCounters {
 public:
  void add(DropReason reason, std::uint64_t n = 1) noexcept {
    counts_[static_cast<std::size_t>(reason)] += n;
  }

  std::uint64_t operator[](DropReason reason) const noexcept {
    return counts_[static_cast<std::size_t>(reason)].value();
  }

  /// The underlying instrument for one reason (registry registration).
  const obs::Counter& counter(DropReason reason) const noexcept {
    return counts_[static_cast<std::size_t>(reason)];
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : counts_) sum += c.value();
    return sum;
  }

  bool operator==(const DropCounters& other) const noexcept {
    for (std::size_t i = 0; i < kDropReasonCount; ++i) {
      if (counts_[i].value() != other.counts_[i].value()) return false;
    }
    return true;
  }

 private:
  std::array<obs::Counter, kDropReasonCount> counts_{};
};

}  // namespace akadns

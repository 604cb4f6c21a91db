// Serial-ordered IXFR delta log, one bounded window per zone apex.
//
// The journal is the memory between publishes: every accepted delta is
// appended in serial order, and a secondary that is N versions behind
// can be caught up with the contiguous sub-chain covering its serial —
// the RFC 1995 incremental path. Everything the journal cannot answer
// (a gap where old deltas were evicted, a serial regression after a
// force-publish, an apex it has never seen) is a *miss*, and a miss
// always means "fall back to AXFR": the caller ships the full snapshot
// instead. The journal never invents or reorders deltas, so a hit is a
// chain whose application provably reproduces the target serial.
//
// Bounded by delta count and total record count per apex (old entries
// evicted front-first), so a chatty zone cannot grow the log without
// limit; eviction only widens the set of secondaries that need AXFR.
// Not internally synchronized — the owning ZonePublisher serializes
// access under its own lock.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "obs/series.hpp"
#include "zone/zone_transfer.hpp"

namespace akadns::propagation {

struct JournalConfig {
  /// Max retained deltas per apex.
  std::size_t max_deltas_per_apex = 64;
  /// Max total records (deletions + additions) retained per apex.
  std::size_t max_records_per_apex = 65536;
};

struct JournalStats {
  obs::Counter appended;
  obs::Counter evicted;  // deltas dropped to respect the bounds
  obs::Counter resets;   // logs cleared (gap / regression / full publish)
  obs::Counter chain_hits;
  obs::Counter chain_misses;

  static constexpr obs::FamilySpec kEvent{"akadns_zone_journal_total", "event",
                                          "zone delta-journal events"};
  static constexpr obs::SeriesRow<JournalStats> kSeries[] = {
      {kEvent, "appended", &JournalStats::appended},
      {kEvent, "evicted", &JournalStats::evicted},
      {kEvent, "reset", &JournalStats::resets},
      {kEvent, "chain_hit", &JournalStats::chain_hits},
      {kEvent, "chain_miss", &JournalStats::chain_misses},
  };
};

class ZoneJournal {
 public:
  explicit ZoneJournal(JournalConfig config = {}) : config_(config) {}

  /// Appends one delta to its apex's log. A delta that does not continue
  /// the log (its from_serial is not the log's last to_serial) resets the
  /// log first: a discontinuity means intermediate history is unknowable,
  /// and pretending otherwise is how stale chains corrupt replicas.
  void append(zone::ZoneDiff delta);

  /// Clears one apex's log (full-snapshot publish or serial regression:
  /// incremental history no longer connects).
  void reset(const dns::DnsName& apex);

  /// Drops an apex entirely (zone removed).
  void remove(const dns::DnsName& apex);

  /// The contiguous delta chain taking `from_serial` to `to_serial`, or
  /// nullopt when the log cannot cover that span — the AXFR-fallback
  /// signal. Requires from < to; equal serials are the caller's no-op.
  std::optional<std::vector<zone::ZoneDiff>> chain(const dns::DnsName& apex,
                                                   std::uint32_t from_serial,
                                                   std::uint32_t to_serial) const;

  std::size_t delta_count(const dns::DnsName& apex) const;
  std::size_t record_count(const dns::DnsName& apex) const;
  const JournalStats& stats() const noexcept { return stats_; }

 private:
  struct ApexLog {
    std::deque<zone::ZoneDiff> deltas;  // contiguous, serial-ascending
    std::size_t records = 0;            // sum of deltas[i].size()
  };

  void enforce_bounds(ApexLog& log);

  JournalConfig config_;
  std::map<dns::DnsName, ApexLog> logs_;
  mutable JournalStats stats_;
};

}  // namespace akadns::propagation

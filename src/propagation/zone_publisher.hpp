// Transport-agnostic zone publication: one pipeline feeding every
// transport the repo has.
//
// The paper's metadata pipeline (§3.2) validates a zone version once at
// the Management Portal and then propagates the *same* version to every
// nameserver. This module is that shape in miniature: ZonePublisher owns
// the master ZoneStore and the IXFR journal; each publish() computes the
// delta against the current version, incrementally recompiles the
// snapshot, journals the delta, and fans a ZoneUpdate out to every
// subscription. The simulated control plane and the real-socket frontend
// both sit on this one pipeline — they differ only in how the ZoneUpdate
// crosses the transport (shared pointer vs. IXFR bytes over TCP).
//
// A version reaches a replica one of two ways. A ZoneUpdate carries the
// already-compiled snapshot, and in-process subscribers (sim machines,
// serve workers) adopt it — a pointer swap, zero recompilation,
// byte-identical by construction. Across a wire, TransferService serves
// the journal's delta chain (IXFR) or the snapshot (AXFR) and the
// secondary's own publisher takes them through apply_chain() or
// publish().
//
// Byte-identity note: on the incremental path the publisher stores the
// zone produced by apply_diff(prev, delta), not the caller's object, so
// a master and a secondary that applied the same chain hold identical
// record orderings and compile to identical wire bytes. diff_zones()
// excludes the SOA, so a publish whose only change is SOA rdata drift
// (mname/refresh edits) is detected by comparing SOAs and routed down
// the full-publish path.
//
// Thread model: publish/apply_chain/subscribe serialize on one mutex;
// Subscription::drain() uses its own lock so slow subscribers never
// stall the publisher. The injected Clock stamps published_at, giving
// every transport the same latency axis (cf. DefenseEngine).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "obs/series.hpp"
#include "propagation/zone_journal.hpp"
#include "zone/zone_store.hpp"

namespace akadns::propagation {

/// One published zone version, fanned out to every subscription.
struct ZoneUpdate {
  zone::CompiledZonePtr compiled;  // answer-ready snapshot (source() is the zone)
  Timepoint published_at{};        // publisher clock at fanout
};

using ZoneUpdatePtr = std::shared_ptr<const ZoneUpdate>;

struct PublisherConfig {
  JournalConfig journal;
};

struct PublisherStats {
  obs::Counter published;           // accepted publishes (updates fanned out)
  obs::Counter incremental;         // took the delta + incremental-compile path
  obs::Counter full;                // took the from-scratch compile path
  obs::Counter rejected_serial;     // serial regressions refused
  obs::Counter soa_drift_fallbacks; // SOA-rdata-only change forced full path
  obs::Counter chains_applied;      // apply_chain() ingests

  static constexpr obs::FamilySpec kEvent{"akadns_zone_publish_total", "event",
                                          "zone publisher events"};
  static constexpr obs::SeriesRow<PublisherStats> kSeries[] = {
      {kEvent, "published", &PublisherStats::published},
      {kEvent, "incremental", &PublisherStats::incremental},
      {kEvent, "full", &PublisherStats::full},
      {kEvent, "rejected_serial", &PublisherStats::rejected_serial},
      {kEvent, "soa_drift_fallback", &PublisherStats::soa_drift_fallbacks},
      {kEvent, "chain_applied", &PublisherStats::chains_applied},
  };
};

/// A subscription's inbound queue. Handed out as a shared_ptr so a
/// subscriber can outlive (or die before) the publisher's fanout loop.
class Subscription {
 public:
  /// Lock-free "anything queued?" probe for hot loops.
  bool pending() const noexcept { return pending_.load(std::memory_order_acquire); }

  /// Takes every queued update, oldest first.
  std::vector<ZoneUpdatePtr> drain();

 private:
  friend class ZonePublisher;
  void push(ZoneUpdatePtr update);

  std::mutex mutex_;
  std::deque<ZoneUpdatePtr> queue_;
  std::atomic<bool> pending_{false};
  std::function<void()> wake_;  // fired after each push, outside the lock
};

using SubscriptionPtr = std::shared_ptr<Subscription>;

class ZonePublisher {
 public:
  explicit ZonePublisher(const Clock& clock, PublisherConfig config = {})
      : clock_(clock), journal_(config.journal) {}

  ZonePublisher(const ZonePublisher&) = delete;
  ZonePublisher& operator=(const ZonePublisher&) = delete;

  /// Publishes a zone version. Against an existing version with a lower
  /// serial this diffs, incrementally recompiles, and journals; a new
  /// apex (or SOA-rdata drift) compiles from scratch. Serial regressions
  /// fail without touching the store. On success the returned update has
  /// already been fanned out to every subscription.
  Result<ZoneUpdatePtr> publish(zone::Zone zone);
  Result<ZoneUpdatePtr> publish(zone::ZonePtr zone);

  /// Ingests a received IXFR delta chain (secondary side of a zone
  /// transfer). Skips the deltas the held version already covers,
  /// applies the rest through ZoneStore::apply_chain and fans out one
  /// update for the final serial. Any mismatch fails without side
  /// effects — the caller falls back to requesting AXFR.
  Result<ZoneUpdatePtr> apply_chain(std::span<const zone::ZoneDiff> chain);

  /// Seeds the master from already-compiled snapshots (no journal
  /// entries, no fanout) — bootstrap path for synthetic stores.
  void adopt(const zone::ZoneStore& store);

  /// Registers a subscription. `wake` (optional) is invoked after each
  /// push — e.g. to write an eventfd — and must be cheap and non-blocking.
  SubscriptionPtr subscribe(std::function<void()> wake = {});

  /// Copies every current compiled snapshot into `replica` (shared
  /// pointers, no recompilation). Call after subscribe() so no version
  /// falls between the seed and the first drained update.
  void seed(zone::ZoneStore& replica) const;

  /// Journal chain lookup for transfer servers (nullopt = send AXFR).
  std::optional<std::vector<zone::ZoneDiff>> chain(const dns::DnsName& apex,
                                                    std::uint32_t from_serial,
                                                    std::uint32_t to_serial) const;

  /// Current snapshot of one apex (nullptr when unknown).
  zone::CompiledZonePtr snapshot(const dns::DnsName& apex) const;

  std::vector<dns::DnsName> apexes() const;
  std::size_t zone_count() const;

  PublisherStats stats() const;
  JournalStats journal_stats() const;

  /// Registers the publisher's live counters, its journal's, and the
  /// master store's compile accounting. Instruments are single-writer
  /// under the publisher mutex; scrapes read the atomics lock-free.
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const;

  const Clock& clock() const noexcept { return clock_; }

 private:
  Result<ZoneUpdatePtr> publish_locked(zone::ZonePtr zone);
  ZoneUpdatePtr make_update(zone::CompiledZonePtr compiled) const;
  void fanout(const ZoneUpdatePtr& update);

  const Clock& clock_;
  mutable std::mutex mutex_;
  zone::ZoneStore master_;
  ZoneJournal journal_;
  std::vector<std::weak_ptr<Subscription>> subs_;
  PublisherStats stats_;
};

}  // namespace akadns::propagation

// The consuming end of the propagation pipeline: installs ZoneUpdates
// into a replica ZoneStore.
//
// In-process subscribers (sim machines, serve workers) adopt the
// publisher's compiled snapshot — a pointer swap, byte-identical by
// construction, with no compile on the replica. (A replica on the far
// side of a wire is a secondary's own publisher, fed IXFR or AXFR
// through ZonePublisher::apply_chain and publish.) Every applied update
// restamps its apex's slot in the replica, which the AnswerCache checks
// before each hit — so cache invalidation rides the normal publish
// signal, a flipped zone can never serve stale-serial answers, and the
// answers of every other zone stay cached.
//
// Not internally synchronized: a subscriber belongs to one consumer
// thread (a worker lane, a sim machine), which calls poll()/apply()
// from its own loop. The Subscription handoff underneath is the
// thread-safe part.
#pragma once

#include <cstdint>
#include <functional>

#include "common/clock.hpp"
#include "obs/series.hpp"
#include "propagation/zone_publisher.hpp"
#include "zone/zone_store.hpp"

namespace akadns::propagation {

/// Per-subscriber propagation telemetry.
struct ZoneSyncStats {
  obs::Counter updates;        // updates seen by apply()
  obs::Counter noops;          // replica already at/past the serial
  obs::Counter adopted;        // compiled-snapshot pointer swaps
  obs::Gauge last_latency_ns;  // publish -> applied, publisher clock
  obs::Gauge max_latency_ns;

  static constexpr obs::FamilySpec kEvent{"akadns_zone_sync_total", "event",
                                          "zone propagation apply events"};
  static constexpr obs::SeriesRow<ZoneSyncStats> kSeries[] = {
      {kEvent, "update", &ZoneSyncStats::updates},
      {kEvent, "noop", &ZoneSyncStats::noops},
      {kEvent, "adopted", &ZoneSyncStats::adopted},
      {{"akadns_zone_sync_last_latency_ns", "",
        "publish-to-applied latency of the newest update", obs::GaugeAgg::Max},
       "", &ZoneSyncStats::last_latency_ns},
      {{"akadns_zone_sync_max_latency_ns", "", "worst publish-to-applied latency seen",
        obs::GaugeAgg::Max},
       "", &ZoneSyncStats::max_latency_ns},
  };
};

class ZoneSubscriber {
 public:
  explicit ZoneSubscriber(zone::ZoneStore& replica) : replica_(replica) {}

  ZoneSubscriber(const ZoneSubscriber&) = delete;
  ZoneSubscriber& operator=(const ZoneSubscriber&) = delete;

  /// Subscribes to `publisher` and seeds the replica with its current
  /// snapshots (subscribe-then-seed, so no version can fall in between).
  void attach(ZonePublisher& publisher, std::function<void()> wake = {});

  /// Lock-free probe: anything queued since the last poll?
  bool has_pending() const noexcept { return subscription_ && subscription_->pending(); }

  /// Drains and applies every queued update; returns how many were
  /// applied. `now` should come from the publisher's clock so latency is
  /// measured on one axis.
  std::size_t poll(Timepoint now);

  /// Adopts one update's snapshot into the replica unless it already
  /// holds that serial or a newer one (exposed for transports that carry
  /// updates themselves, e.g. the sim control plane).
  void apply(const ZoneUpdate& update, Timepoint now);

  const ZoneSyncStats& stats() const noexcept { return stats_; }

 private:
  zone::ZoneStore& replica_;
  SubscriptionPtr subscription_;
  ZoneSyncStats stats_;
};

}  // namespace akadns::propagation

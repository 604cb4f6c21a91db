// Adapters wiring pop::Machine instances into the metadata pipeline.
//
// Zone propagation runs through the shared transport-agnostic pipeline
// (src/propagation): publish_zone() validates the snapshot, feeds it to
// a ZonePublisher — which diffs, incrementally recompiles, and journals
// it exactly as the socket frontend's publisher does — and then carries
// the resulting ZoneUpdate across the simulated control plane as a
// metadata payload. On delivery, the machine's own ZoneSubscriber adopts
// the update's compiled snapshot and the machine refreshes its staleness
// clock. Input-delayed machines subscribe with the 1-hour artificial
// delay and can be frozen ("stop receiving any new inputs upon use",
// §4.2.3).
#pragma once

#include "common/clock.hpp"
#include "common/event_scheduler.hpp"
#include "control/control_plane.hpp"
#include "pop/machine.hpp"
#include "propagation/zone_publisher.hpp"
#include "zone/zone.hpp"

namespace akadns::control {

/// Clock adapter putting the propagation pipeline on the simulation's
/// time axis: ZoneUpdate::published_at and subscriber-side latency both
/// read the EventScheduler's instant, mirroring how the socket frontend
/// shares one MonotonicClock across publisher and workers.
class SchedulerClock final : public Clock {
 public:
  explicit SchedulerClock(const EventScheduler& scheduler) noexcept
      : scheduler_(scheduler) {}
  Timepoint now() const noexcept override { return scheduler_.now(); }

 private:
  const EventScheduler& scheduler_;
};

/// Control-plane payload for zone publications: one immutable ZoneUpdate
/// from the propagation pipeline.
struct ZoneUpdateMetadata : Metadata {
  explicit ZoneUpdateMetadata(propagation::ZoneUpdatePtr update_in)
      : update(std::move(update_in)) {}
  propagation::ZoneUpdatePtr update;
};

/// Topic naming convention for zone publications.
std::string zone_topic(const dns::DnsName& apex);

/// Publishes a zone snapshot (the Management Portal's output, after
/// validation): the publisher diffs/compiles/journals it, and the
/// resulting ZoneUpdate rides the control plane to every subscribed
/// machine. Throws std::invalid_argument if validation fails or the
/// serial regresses — "the Management Portal validates the metadata and
/// publishes it".
std::uint64_t publish_zone(ControlPlane& plane, propagation::ZonePublisher& publisher,
                           zone::Zone zone);

/// Subscribes a machine (which must own a local store) to a zone topic.
/// Returns the subscription id. `input_delay` is zero for regular
/// machines and one hour for input-delayed ones.
ControlPlane::SubscriptionId subscribe_machine_to_zone(
    ControlPlane& plane, pop::Machine& machine, const dns::DnsName& apex,
    Duration input_delay = Duration::zero());

/// Generic heartbeat topic used to model mapping-intelligence updates:
/// delivery refreshes the machine's metadata timestamp (real-time
/// multicast class).
ControlPlane::SubscriptionId subscribe_machine_to_mapping(
    ControlPlane& plane, pop::Machine& machine,
    Duration input_delay = Duration::zero());

constexpr const char* kMappingTopic = "mapping/intelligence";

}  // namespace akadns::control

// A purpose-built machine inside a PoP (Figure 6): the nameserver
// software, its BGP speaker, and hooks for hardware/software failure
// injection. "The most common failure mode we observe is disk failure,
// but any hardware subsystem can fail. Hardware failures often manifest
// in the nameserver software not responding, responding slowly, or
// responding with incorrect answers." (§4.2.1)
#pragma once

#include <memory>
#include <optional>

#include "pop/bgp_speaker.hpp"
#include "propagation/zone_subscriber.hpp"
#include "server/nameserver.hpp"

namespace akadns::pop {

enum class FailureType : std::uint8_t {
  Disk,                // most common: manifests as wrong/stale answers
  Memory,              // corrupt answers
  Nic,                 // packets silently lost
  SoftwareBug,         // no responses (hang)
  ConnectivityLoss,    // metadata AND queries cut off
  PartialConnectivity, // transit links down: metadata cut, queries still arrive
};

struct MachineConfig {
  std::string id = "machine";
  server::NameserverConfig nameserver{};
  bool input_delayed = false;
};

/// Machine-level accounting for packets that die before the nameserver
/// ever sees them (injected NIC/connectivity failures). Folded into the
/// fleet-wide conservation check by control/reporting.
struct MachineStats {
  obs::Counter delivered;  // packets handed to the nameserver
  DropCounters drops;      // NicFailure: lost below the stack

  static constexpr obs::SeriesRow<MachineStats> kSeries[] = {
      {{"akadns_machine_delivered_total", "",
        "packets handed to the nameserver by the (simulated) NIC"},
       "", &MachineStats::delivered},
      {obs::kDropsFamily, "", &MachineStats::drops},
  };
};

class Machine {
 public:
  /// Machine serving from a shared (externally owned) zone store.
  Machine(MachineConfig config, const zone::ZoneStore& store);

  /// Machine owning a private zone-store replica, to be fed through the
  /// metadata pipeline (src/control). This is the production shape: each
  /// nameserver subscribes to zone/mapping publications and can therefore
  /// individually lag, go stale, or be input-delayed.
  explicit Machine(MachineConfig config);

  /// The private replica (nullptr for shared-store machines).
  zone::ZoneStore* local_store() noexcept { return owned_store_.get(); }

  /// Adopts one published zone version's compiled snapshot into the
  /// private replica through the propagation subscriber (no compile on
  /// the machine) and refreshes the staleness clock. Only valid on
  /// replica-owning machines; shared-store machines receive zones out of
  /// band.
  void apply_zone_update(const propagation::ZoneUpdate& update, SimTime now);

  /// Propagation telemetry for the private replica (nullptr when the
  /// machine serves a shared store).
  const propagation::ZoneSyncStats* zone_sync_stats() const noexcept {
    return zone_sync_ ? &zone_sync_->stats() : nullptr;
  }

  /// The store this machine serves from (owned replica or the shared
  /// one) — the telemetry surface for publish-time compile stats.
  const zone::ZoneStore& zone_store() const noexcept { return *store_; }

  const std::string& id() const noexcept { return config_.id; }
  bool input_delayed() const noexcept { return config_.input_delayed; }

  server::Nameserver& nameserver() noexcept { return nameserver_; }
  const server::Nameserver& nameserver() const noexcept { return nameserver_; }
  BgpSpeaker& speaker() noexcept { return speaker_; }
  const BgpSpeaker& speaker() const noexcept { return speaker_; }

  // ---- datapath with failure semantics ------------------------------------

  /// Delivers a packet to the nameserver, subject to injected failures:
  /// NIC/connectivity failures drop it, software-bug failures swallow it
  /// (accepted but never answered — the "responding slowly/not at all"
  /// mode), disk/memory failures corrupt the eventual answer.
  void deliver(std::span<const std::uint8_t> wire, const Endpoint& source,
               std::uint8_t ip_ttl, SimTime now);

  /// Drives the nameserver's processing loop (all lanes inline).
  std::size_t pump(SimTime now);

  // Phased pump — the machine-level wrappers around the nameserver's
  // begin_phase/run_lane/end_phase, honoring injected failures. Pop::pump
  // uses these to drain many machines' lanes across a worker pool:
  //   begin (serial) → run lanes (any thread) → end (serial, in order).

  /// Serial. False when this machine has nothing to process this round
  /// (hung process, crashed/suspended nameserver, no backlog or tokens);
  /// end_pump_phase must not be called in that case.
  bool begin_pump_phase(SimTime now);
  /// Parallel-safe for distinct (machine, lane) pairs.
  void run_pump_lane(std::size_t lane, SimTime now) { nameserver_.run_lane(lane, now); }
  /// Serial. Returns the number of queries processed this phase.
  std::size_t end_pump_phase(SimTime now) { return nameserver_.end_phase(now); }

  /// Whether metadata deliveries currently reach this machine.
  bool metadata_reachable() const noexcept;

  const MachineStats& stats() const noexcept { return stats_; }

  /// Registers every metric this machine owns — nameserver lanes,
  /// defense engine, machine-level NIC accounting, and (for replica
  /// owners) zone-sync telemetry — under `base`. Shared zone stores are
  /// deliberately NOT registered here: the fleet collector registers
  /// each unique store once so shared compile stats are not multiplied
  /// by the machines pointing at them.
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    nameserver_.register_metrics(reg, base);
    obs::register_series(reg, base, stats_);
    if (zone_sync_) obs::register_series(reg, base, zone_sync_->stats());
  }

  // ---- failure injection ----------------------------------------------------

  void inject_failure(FailureType failure) noexcept { failure_ = failure; }
  void clear_failure() noexcept { failure_.reset(); }
  std::optional<FailureType> failure() const noexcept { return failure_; }

  /// Answers a health-probe question directly (the monitoring agent's
  /// test suite path); returns nullopt when the machine cannot answer,
  /// and a corrupted rcode when failing hardware garbles answers.
  std::optional<dns::Rcode> probe(const dns::Question& question, SimTime now);

 private:
  MachineConfig config_;
  std::unique_ptr<zone::ZoneStore> owned_store_;  // set before nameserver_
  const zone::ZoneStore* store_ = nullptr;        // whichever store serves
  /// Applies ZoneUpdates to the owned replica (null for shared stores).
  std::unique_ptr<propagation::ZoneSubscriber> zone_sync_;
  server::Nameserver nameserver_;
  BgpSpeaker speaker_;
  std::optional<FailureType> failure_;
  MachineStats stats_;
};

}  // namespace akadns::pop

// Versioned zone store: the nameserver-side container of published zone
// snapshots. Publishing replaces the zone pointer atomically (snapshot
// semantics, matching the paper's metadata pipeline where the Management
// Portal publishes validated zone versions and nameservers subscribe).
// Serial regressions are rejected, mirroring serial-based zone transfer
// rules (RFC 1996 / 5936).
//
// Every accepted publish compiles the snapshot into a CompiledZone
// (answer-ready node table + wire fragments) before the swap, so the hot
// read path only ever sees fully-built snapshots. Three publish shapes
// exist, cheapest first: publish_compiled() installs an already-compiled
// snapshot shared with another store (replica seeding), apply_chain()
// incrementally recompiles only the nodes each ZoneDiff touches, and
// publish() compiles from scratch. All snapshots sit in one hash map
// keyed by apex and hashed by its suffix hash, so the map is itself the
// longest-suffix index: an install is one insert-or-assign, O(1) in the
// zone count. find_best() hashes every suffix of the query name in one
// pass and probes the map at each depth that holds an apex — zero heap
// allocations even on the miss path, which a REFUSED flood exercises.
//
// Two counters say what changed. Each apex slot carries a stamp, the store
// generation at which its current snapshot was installed, and find_best()
// hands that stamp out with the snapshot, so a reader can tell in O(1)
// whether the zone it read has been republished since. The layout
// generation moves only when an apex is added or removed, the one change
// that can move a name to another zone (longest-suffix match).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "obs/series.hpp"
#include "zone/compiled_zone.hpp"
#include "zone/zone.hpp"
#include "zone/zone_transfer.hpp"

namespace akadns::zone {

/// Cumulative cost of publish-time compilation (telemetry surface).
struct CompileStats {
  obs::Counter compiles;              // from-scratch compiles
  obs::Counter incremental_compiles;  // delta-driven recompiles
  obs::Counter adopted;               // pre-compiled snapshots installed
  obs::Counter total_micros;
  obs::Gauge last_micros;
  obs::Gauge last_nodes;
  obs::Gauge last_fragments;
  /// Nodes shared with the previous snapshot by the last incremental
  /// compile — the work the delta path avoided redoing.
  obs::Gauge last_reused_nodes;

  /// Compiles by path plus last-compile gauges (Max across machines:
  /// "the worst latest compile").
  static constexpr obs::FamilySpec kPath{"akadns_zone_compile_total", "path",
                                         "publish-time zone compiles by path"};
  static constexpr obs::SeriesRow<CompileStats> kSeries[] = {
      {kPath, "full", &CompileStats::compiles},
      {kPath, "incremental", &CompileStats::incremental_compiles},
      {kPath, "adopted", &CompileStats::adopted},
      {{"akadns_zone_compile_micros_total", "", "cumulative publish-time compile cost"}, "",
       &CompileStats::total_micros},
      {{"akadns_zone_compile_last_micros", "", "cost of the most recent compile",
        obs::GaugeAgg::Max},
       "", &CompileStats::last_micros},
      {{"akadns_zone_compile_last_nodes", "", "nodes in the most recent compiled snapshot",
        obs::GaugeAgg::Max},
       "", &CompileStats::last_nodes},
      {{"akadns_zone_compile_last_fragments", "",
        "fragments in the most recent compiled snapshot", obs::GaugeAgg::Max},
       "", &CompileStats::last_fragments},
      {{"akadns_zone_compile_last_reused_nodes", "",
        "nodes the last incremental compile reused", obs::GaugeAgg::Max},
       "", &CompileStats::last_reused_nodes},
  };
};

/// Which install of an apex slot a snapshot came from. current() is O(1):
/// it compares the stamp taken at lookup with the slot's live stamp,
/// which every install at that apex moves. A removed apex frees its slot,
/// so a stamp may be checked only while the store's layout_generation()
/// still reads what it read when the stamp was taken.
class ZoneStamp {
 public:
  ZoneStamp() = default;

  bool current() const noexcept { return *slot_ == stamp_; }
  /// Whether both stamps were taken from the same apex slot.
  bool same_slot(const ZoneStamp& other) const noexcept { return slot_ == other.slot_; }

 private:
  friend class ZoneStore;
  ZoneStamp(const std::uint64_t* slot, std::uint64_t stamp) noexcept
      : slot_(slot), stamp_(stamp) {}

  const std::uint64_t* slot_ = nullptr;
  std::uint64_t stamp_ = 0;
};

/// find_best()'s answer: the snapshot (null when no apex matches) and the
/// stamp of the slot that held it.
struct ZoneHandle {
  CompiledZonePtr zone;
  ZoneStamp stamp;
};

class ZoneStore {
 public:
  /// Publishes a zone snapshot. Returns false (and keeps the old version)
  /// if a zone with the same apex and a serial >= the new one exists.
  /// Compilation happens before the swap; readers never see a half-built
  /// snapshot.
  bool publish(Zone zone);
  bool publish(ZonePtr zone);

  /// Force-publishes regardless of serial (operator override path).
  void force_publish(Zone zone);
  void force_publish(ZonePtr zone);

  /// Applies an IXFR delta chain to the stored snapshot, incrementally
  /// recompiling only the nodes each diff touches, and installs the last
  /// result. All or nothing: fails — installing nothing — when no zone
  /// exists at the chain's apex, a diff's from_serial is not the serial
  /// reached so far, or a diff names another apex or a record its base
  /// does not hold: the RFC 1995 "fall back to AXFR" cases. Returns the
  /// newly installed snapshot on success.
  Result<CompiledZonePtr> apply_chain(std::span<const ZoneDiff> chain);
  Result<CompiledZonePtr> apply_delta(const ZoneDiff& diff) { return apply_chain({&diff, 1}); }

  /// Installs an already-compiled snapshot (shared with the compiling
  /// store — no recompilation, just the swap). Serial rules apply unless
  /// `force`; returns false when rejected.
  bool publish_compiled(CompiledZonePtr compiled, bool force = false);

  /// Force-installs every compiled snapshot of `other` (replica seeding:
  /// the snapshots are shared, not recompiled).
  void adopt(const ZoneStore& other);

  /// Removes a zone; returns true if it existed.
  bool remove(const DnsName& apex);

  /// The compiled zone whose apex is the longest suffix of `qname` (null
  /// when none is), with its slot's stamp. Allocation-free: probes the
  /// apex map at each populated depth instead of materializing suffix
  /// names.
  ZoneHandle find_best(const DnsName& qname) const noexcept;

  /// find_best() without the stamp.
  CompiledZonePtr find_best_compiled(const DnsName& qname) const noexcept {
    return find_best(qname).zone;
  }

  /// The zone whose apex is the longest suffix of `qname`, or nullptr.
  ZonePtr find_best_zone(const DnsName& qname) const;

  /// Exact-apex fetch.
  ZonePtr find_zone(const DnsName& apex) const;

  /// Exact-apex fetch of the compiled snapshot.
  CompiledZonePtr find_compiled(const DnsName& apex) const;

  bool has_zone(const DnsName& apex) const { return zones_.contains(exact(apex)); }

  std::size_t zone_count() const noexcept { return zones_.size(); }
  std::size_t total_records() const noexcept;

  /// Apexes of all hosted zones (stable canonical order).
  std::vector<DnsName> zone_apexes() const;

  /// Monotone counter incremented on every successful install or remove
  /// (each worker exports its replica's as a gauge). An install stamps
  /// its apex slot with the value it moved to; see ZoneStamp.
  std::uint64_t generation() const noexcept { return generation_; }

  /// Moves only when an apex is added or removed, the one change that can
  /// move a name to another zone. A republish leaves it alone. The answer
  /// cache clears itself when it moves; until then every ZoneStamp taken
  /// under it stays safe to check.
  std::uint64_t layout_generation() const noexcept { return layout_generation_; }

  const CompileStats& compile_stats() const noexcept { return compile_stats_; }

 private:
  /// An apex and its suffix hash, computed once at insert so walking a
  /// bucket never rehashes a name.
  struct ApexKey {
    DnsName name;
    std::uint64_t hash;
  };
  /// A label-aligned tail of a query name (DnsName::wire_labels() form):
  /// a key that builds no DnsName.
  struct ApexProbe {
    std::string_view tail;
    std::uint64_t hash;
  };
  struct ApexHash {
    using is_transparent = void;
    std::size_t operator()(const auto& key) const noexcept { return key.hash; }
  };
  struct ApexEq {
    using is_transparent = void;
    bool operator()(const ApexKey& a, const ApexKey& b) const noexcept { return a.name == b.name; }
    bool operator()(const ApexProbe& p, const ApexKey& k) const noexcept {
      return p.hash == k.hash && k.name.wire_labels() == p.tail;
    }
    bool operator()(const ApexKey& k, const ApexProbe& p) const noexcept { return (*this)(p, k); }
  };

  /// An apex's current snapshot and the generation that installed it.
  /// Map nodes never move, so a ZoneStamp may point at `stamp` for as
  /// long as the apex stays.
  struct Slot {
    CompiledZonePtr compiled;
    std::uint64_t stamp = 0;
  };

  static ApexProbe exact(const DnsName& apex) noexcept {
    return {apex.wire_labels(), apex.suffix_hash()};
  }
  void store(ZonePtr zone);
  void install(CompiledZonePtr compiled);
  void note_compile(const CompiledZone& compiled);

  std::unordered_map<ApexKey, Slot, ApexHash, ApexEq> zones_;
  /// Apexes per label count (at most 127): lookups skip empty depths.
  std::array<std::uint32_t, 128> apexes_at_depth_{};
  std::uint64_t generation_ = 0;
  std::uint64_t layout_generation_ = 0;
  CompileStats compile_stats_;
};

}  // namespace akadns::zone

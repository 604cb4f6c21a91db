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
// snapshot shared with another store (replica seeding), apply_delta()
// incrementally recompiles only the nodes a ZoneDiff touches, and
// publish() compiles from scratch. All snapshots sit in one hash map
// keyed by apex and hashed by its suffix hash, so the map is itself the
// longest-suffix index: an install is one insert-or-assign, O(1) in the
// zone count. find_best_compiled() hashes every suffix of the query name
// in one pass and probes the map at each depth that holds an apex — zero
// heap allocations even on the miss path, which a REFUSED flood exercises.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "obs/registry.hpp"
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

  /// akadns_zone_compile_total{path=...} counters plus last-compile
  /// gauges (Max across machines: "the worst latest compile").
  void register_into(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    const auto path = [&](const char* name, const obs::Counter& c) {
      reg.counter("akadns_zone_compile_total", obs::with(base, "path", name), c,
                  "publish-time zone compiles by path");
    };
    path("full", compiles);
    path("incremental", incremental_compiles);
    path("adopted", adopted);
    reg.counter("akadns_zone_compile_micros_total", base, total_micros,
                "cumulative publish-time compile cost");
    reg.gauge("akadns_zone_compile_last_micros", base, last_micros,
              obs::GaugeAgg::Max, "cost of the most recent compile");
    reg.gauge("akadns_zone_compile_last_nodes", base, last_nodes,
              obs::GaugeAgg::Max, "nodes in the most recent compiled snapshot");
    reg.gauge("akadns_zone_compile_last_fragments", base, last_fragments,
              obs::GaugeAgg::Max, "fragments in the most recent compiled snapshot");
    reg.gauge("akadns_zone_compile_last_reused_nodes", base, last_reused_nodes,
              obs::GaugeAgg::Max, "nodes the last incremental compile reused");
  }
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

  /// Applies an IXFR delta to the stored snapshot, incrementally
  /// recompiling only the nodes the diff touches. Fails — leaving the
  /// store untouched — when no zone exists at the diff's apex, the stored
  /// serial does not match diff.from_serial, or the diff names a record
  /// the base does not hold: the RFC 1995 "fall back to AXFR" cases.
  /// Returns the newly installed snapshot on success.
  Result<CompiledZonePtr> apply_delta(const ZoneDiff& diff);

  /// Installs an already-compiled snapshot (shared with the compiling
  /// store — no recompilation, just the swap). Serial rules apply unless
  /// `force`; returns false when rejected.
  bool publish_compiled(CompiledZonePtr compiled, bool force = false);

  /// Force-installs every compiled snapshot of `other` (replica seeding:
  /// the snapshots are shared, not recompiled).
  void adopt(const ZoneStore& other);

  /// Removes a zone; returns true if it existed.
  bool remove(const DnsName& apex);

  /// The compiled zone whose apex is the longest suffix of `qname`, or
  /// nullptr. Allocation-free: probes the apex map at each populated
  /// depth instead of materializing suffix names.
  CompiledZonePtr find_best_compiled(const DnsName& qname) const noexcept;

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

  /// Monotone counter incremented on every successful publish/remove;
  /// the staleness detector and the answer cache use it as a cheap
  /// change signal.
  std::uint64_t generation() const noexcept { return generation_; }

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

  static ApexProbe exact(const DnsName& apex) noexcept {
    return {apex.wire_labels(), apex.suffix_hash()};
  }
  void store(ZonePtr zone);
  void install(CompiledZonePtr compiled);
  void note_compile(const CompiledZone& compiled);

  std::unordered_map<ApexKey, CompiledZonePtr, ApexHash, ApexEq> zones_;
  /// Apexes per label count (at most 127): lookups skip empty depths.
  std::array<std::uint32_t, 128> apexes_at_depth_{};
  std::uint64_t generation_ = 0;
  CompileStats compile_stats_;
};

}  // namespace akadns::zone

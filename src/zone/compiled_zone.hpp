// Immutable answer-ready zone snapshots, compiled once per publish.
//
// The paper's read path is many orders of magnitude hotter than its
// publish path: zone data changes only through whole-snapshot publishes
// from the metadata pipeline (§3.1, §5) while each machine answers up to
// millions of queries per second. CompiledZone exploits that asymmetry by
// doing, at publish time, all the work the interpreted Zone::lookup redid
// per query:
//
//   - every owner name (including empty non-terminals, materialized
//     explicitly) lands in a flat node table indexed by an incremental
//     suffix hash, so a lookup is one hash fold over the query name and
//     O(depth) probes — no DnsName construction, no std::map walk;
//   - each node carries its precomputed outcome metadata: delegation cut
//     (with the referral's NS + glue fragment group), wildcard child,
//     CNAME target, per-type RRset ranges;
//   - every RRset is pre-encoded into dns::WireFragments, so the
//     responder stitches answers into the encoder instead of
//     re-serializing ResourceRecords — byte-identical to the interpreted
//     path, which stays as the differential-testing reference.
//
// Per-node data is self-contained (the owner name and every name a
// fragment references — rdata targets, glue owners — live in the node,
// the latter in one exactly-sized vector) and held behind shared_ptr,
// so successive snapshots of the same zone share every node a ZoneDiff
// did not touch: compile_incremental() rebuilds only the
// affected nodes and their referral/ENT/glue dependents, with the result
// pinned byte-identical to a from-scratch compile by the differential
// suite. Snapshots are always handed around behind shared_ptr, so
// in-flight lookups survive a concurrent republish exactly like the
// interpreted ZonePtr snapshots did.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dns/wire.hpp"
#include "zone/zone.hpp"
#include "zone/zone_transfer.hpp"

namespace akadns::zone {

/// Outcome of a compiled lookup: the same LookupStatus taxonomy as the
/// interpreted path, but sections are spans over precompiled fragments
/// instead of freshly copied ResourceRecords.
struct CompiledAnswer {
  LookupStatus status = LookupStatus::NxDomain;
  bool wildcard_match = false;
  std::span<const dns::WireFragment> answers;
  std::span<const dns::WireFragment> authority;
  std::span<const dns::WireFragment> additional;
  /// Set when status == CnameChase: the target to continue the chase at
  /// (points into the snapshot; stable for the snapshot's lifetime).
  const dns::DnsName* cname_target = nullptr;
  /// Minimum TTL across the emitted records — the answer cache's expiry.
  std::uint32_t min_ttl = 0;
};

class CompiledZone;
using CompiledZonePtr = std::shared_ptr<const CompiledZone>;

class CompiledZone {
 public:
  /// Compiles a published snapshot from scratch. O(names × depth).
  static CompiledZonePtr compile(ZonePtr source);

  /// Compiles the snapshot `source` (which must be apply_diff(prev.zone(),
  /// diff)) by reusing every node of `prev` the diff does not touch.
  /// Rebuilds: the diffed owners, their ancestors up to the apex (ENT
  /// creation/removal and the apex SOA), and any delegation cut whose
  /// glue targets a diffed owner. Falls back to a full compile when the
  /// diff does not line up with prev/source serials. The result is
  /// indistinguishable from compile(source): same lookups, same wire
  /// bytes, same content_hash().
  static CompiledZonePtr compile_incremental(const CompiledZone& prev, ZonePtr source,
                                             const ZoneDiff& diff);

  CompiledZone() = default;
  // Nodes self-reference their owner storage; the object never moves
  // (always constructed in place behind shared_ptr).
  CompiledZone(const CompiledZone&) = delete;
  CompiledZone& operator=(const CompiledZone&) = delete;

  const Zone& zone() const noexcept { return *source_; }
  const ZonePtr& source() const noexcept { return source_; }
  const DnsName& apex() const noexcept { return source_->apex(); }
  std::uint32_t serial() const noexcept { return source_->serial(); }

  /// Full RFC 1034 lookup against the compiled tables. Performs zero
  /// heap allocations; agreement with Zone::lookup (status, wildcard
  /// flag, and the wire bytes of every section) is enforced by the
  /// differential property suite.
  CompiledAnswer lookup(const DnsName& qname, dns::RecordType qtype) const noexcept;

  // -- compile-time facts (telemetry / tests) -------------------------------
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t fragment_count() const noexcept { return fragment_count_; }
  /// Host wall-clock cost of this compile in microseconds.
  std::uint64_t compile_micros() const noexcept { return compile_micros_; }
  /// True when this snapshot was built by compile_incremental().
  bool incremental() const noexcept { return incremental_; }
  /// Nodes shared structurally with the previous snapshot (0 for full
  /// compiles) — the quantity the incremental path exists to maximize.
  std::size_t reused_nodes() const noexcept { return reused_nodes_; }

  /// Order-sensitive digest of everything a lookup can observe: owner
  /// names, type ranges, fragment bytes (fixed fields, literals, name
  /// references), referral groups, wildcard links, and the negative SOA.
  /// Two snapshots with equal content_hash() answer identically — the
  /// cheap equality the incremental differential tests lean on.
  std::uint64_t content_hash() const;

 private:
  /// RRsets of one type at a node: a contiguous fragment range into the
  /// node's own fragment vector.
  struct TypeRange {
    dns::RecordType type{};
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t ttl = 0;
  };

  /// Everything one existing name (real or empty non-terminal) compiles
  /// to. Immutable and self-contained: fragment owner/name pointers only
  /// reference `owner` and `names`, never the source Zone — which is what
  /// lets snapshots share untouched nodes while their sources differ.
  struct NodeData {
    NodeData() = default;
    // Fragments point into the node's own names: a copy would alias them.
    NodeData(const NodeData&) = delete;
    NodeData& operator=(const NodeData&) = delete;

    DnsName owner;
    /// Every other name a fragment points at (rdata targets, glue owners,
    /// the CNAME target), each distinct name once, in canonical order.
    /// Sized exactly when the node is built and never grown, so the
    /// pointers into it hold for the node's whole life.
    std::vector<DnsName> names;
    std::vector<TypeRange> ranges;
    std::vector<dns::WireFragment> frags;  // all RRsets at the node, map order
    /// Delegation referral payload: NS RRset then glue, matching the
    /// interpreted attach_glue() order (A then AAAA per NS record). The
    /// NS fragments' targets are also the glue dependency edges the
    /// incremental compiler consults: a change at a target invalidates
    /// this node's referral group.
    std::vector<dns::WireFragment> referral_frags;
    std::uint32_t referral_auth_end = 0;  // NS/glue boundary
    std::uint32_t referral_min_ttl = 0;
    bool is_cut = false;
    const DnsName* cname_target = nullptr;  // into names, set iff CNAME here
  };
  using NodeDataPtr = std::shared_ptr<const NodeData>;

  /// Per-snapshot view of a node: shared payload plus the version-level
  /// wildcard link (which can change without the node's own data
  /// changing, so it lives outside NodeData).
  struct Node {
    NodeDataPtr data;
    std::int32_t wildcard = -1;  // node index of the "*" child, if any
  };

  static NodeDataPtr build_node(const Zone& z, const DnsName& name, const DnsName& apex);
  /// Wildcard links, negative SOA, apex node, fragment count — the
  /// version-level passes shared by both compile paths. nodes_ must be
  /// final and sorted by owner.
  void finish(const Zone& z);
  std::int32_t find_node_index(const DnsName& name) const;

  /// The node whose owner is `tail` (a label-aligned tail of a query
  /// name, in DnsName::wire_labels() form) with suffix hash `hash`.
  const Node* find_node(std::uint64_t hash, std::string_view tail) const noexcept;
  static const TypeRange* find_range(const NodeData& data, dns::RecordType type) noexcept;
  CompiledAnswer negative(LookupStatus status) const noexcept;

  ZonePtr source_;
  std::vector<Node> nodes_;  // canonical owner order (DnsName operator<)
  /// (suffix hash of owner name, node index), sorted by hash for binary
  /// search; collisions resolved by label comparison against the qname.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> index_;
  /// The apex SOA with TTL clamped to negative_ttl() (RFC 2308), emitted
  /// in the authority section of every negative answer. Empty when the
  /// zone has no SOA (mirrors attach_negative_authority()). Aliases
  /// source_, which the snapshot pins.
  std::vector<dns::WireFragment> negative_soa_;
  std::uint32_t negative_ttl_ = 0;
  std::uint32_t apex_node_ = 0;
  std::size_t fragment_count_ = 0;
  std::uint64_t compile_micros_ = 0;
  bool incremental_ = false;
  std::size_t reused_nodes_ = 0;
};

}  // namespace akadns::zone

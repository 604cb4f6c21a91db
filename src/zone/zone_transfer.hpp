// Zone transfer: AXFR (RFC 5936) and IXFR-style incremental diffs
// (RFC 1995). §3.2 of the paper: "DNS zones can also be updated through
// zone transfers" — this is the second ingestion path into the
// Management Portal, next to the website/API.
//
// AXFR streams the whole zone as a sequence of DNS messages whose answer
// sections begin and end with the apex SOA. IXFR carries a diff: per
// serial step, the deleted RRs (prefixed by the old SOA) then the added
// RRs (prefixed by the new SOA). Both directions are implemented:
// serialize from a Zone, and reassemble/apply into a Zone, with the
// validation a transfer consumer must perform.
#pragma once

#include <span>

#include "common/result.hpp"
#include "dns/message.hpp"
#include "zone/zone.hpp"

namespace akadns::zone {

// ---------------------------------------------------------------------------
// AXFR
// ---------------------------------------------------------------------------

struct AxfrOptions {
  /// Records per message (RFC 5936 allows many; small values exercise
  /// multi-message transfers).
  std::size_t records_per_message = 100;
  std::uint16_t transaction_id = 0;
};

/// Serializes the zone as an AXFR response stream. The first message's
/// first record and the last message's last record are the apex SOA.
std::vector<dns::Message> axfr_serialize(const Zone& zone, const AxfrOptions& options = {});

/// Reassembles an AXFR stream into a Zone. Validates the SOA envelope,
/// monotone transaction ids, and record admissibility.
Result<Zone> axfr_assemble(std::span<const dns::Message> stream);

// ---------------------------------------------------------------------------
// IXFR-style diffs
// ---------------------------------------------------------------------------

struct ZoneDiff {
  dns::DnsName apex;
  std::uint32_t from_serial = 0;
  std::uint32_t to_serial = 0;
  std::vector<dns::ResourceRecord> deletions;  // excluding the SOA pair
  std::vector<dns::ResourceRecord> additions;

  bool empty() const noexcept { return deletions.empty() && additions.empty(); }
  std::size_t size() const noexcept { return deletions.size() + additions.size(); }
};

/// Computes the record-level diff between two versions of a zone.
/// Throws std::invalid_argument if the apexes differ or serials do not
/// increase.
ZoneDiff diff_zones(const Zone& from, const Zone& to);

/// Applies a diff to a base zone, producing the new version. Fails when
/// the base serial does not match diff.from_serial or a deletion names a
/// record the base does not hold (the RFC 1995 "fall back to AXFR" case).
/// O(zone + diff): the base is copied and only the diffed records touched,
/// so a small delta against a big zone costs the map copy, not a rebuild.
Result<Zone> apply_diff(const Zone& base, const ZoneDiff& diff);

/// Serializes a contiguous delta chain as one IXFR response (RFC 1995
/// multi-delta form): latest-SOA, then per delta old-SOA, deletions,
/// new-SOA, additions, closed by the latest SOA. Throws
/// std::invalid_argument on an empty, apex-mixed, or non-contiguous
/// chain — the journal only ever hands out contiguous windows.
dns::Message ixfr_serialize_chain(std::span<const ZoneDiff> chain,
                                  std::uint16_t transaction_id = 0);

/// Parses a (possibly multi-delta) IXFR response into its delta chain,
/// validating the SOA skeleton: serials strictly increase per delta, the
/// chain is contiguous, and it ends at the latest serial announced by the
/// opening SOA. Any violation is a parse failure — the consumer falls
/// back to AXFR instead of applying a suspect diff.
Result<std::vector<ZoneDiff>> ixfr_parse_chain(const dns::Message& message);

}  // namespace akadns::zone

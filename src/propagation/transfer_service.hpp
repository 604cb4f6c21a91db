// The wire face of zone propagation: answers AXFR/IXFR queries from a
// ZoneStore + journal, and builds/parses the messages a secondary needs
// (NOTIFY, SOA refresh probes, transfer requests and their responses).
//
// RFC 1995 §2 lets an IXFR server answer three ways, and serve() picks
// per query: the client is current → a single-SOA "up to date" reply;
// the journal covers the client's serial → the multi-delta incremental
// body; otherwise → an AXFR-style full body (legal inside an IXFR
// response — the client detects it by the second record not being an
// SOA). The journal lives behind a ChainProvider function so the
// service works against a ZonePublisher, a bare ZoneJournal, or a test
// stub without caring which.
//
// Transport-agnostic by construction: everything here maps dns::Message
// to dns::Message. The sim hands them across directly; the socket
// frontend runs them through encode() and the existing TCP framing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "dns/message.hpp"
#include "obs/series.hpp"
#include "propagation/fault_hooks.hpp"
#include "zone/zone_store.hpp"
#include "zone/zone_transfer.hpp"

namespace akadns::propagation {

/// Journal access used by serve(): the contiguous delta chain covering
/// [from, to], or nullopt to force the AXFR-style fallback.
using ChainProvider = std::function<std::optional<std::vector<zone::ZoneDiff>>(
    const dns::DnsName& apex, std::uint32_t from_serial, std::uint32_t to_serial)>;

struct TransferConfig {
  /// Records per AXFR response message (small values exercise the
  /// multi-message reassembly path).
  std::size_t axfr_records_per_message = 500;
  /// Test-only fault seam: each outgoing stream message consults
  /// on_op(StreamMessage); a `fail` fate cuts the stream there — the
  /// client receives a structurally plausible but truncated transfer,
  /// exactly what a connection dying mid-AXFR produces. Null in
  /// production.
  FaultHooksPtr fault_hooks;
};

struct TransferStats {
  obs::Counter axfr_served;
  obs::Counter ixfr_incremental;  // IXFR answered from the journal
  obs::Counter ixfr_fallback;     // IXFR answered with a full body
  obs::Counter up_to_date;        // single-SOA "you are current" replies
  obs::Counter refused;           // unknown zone / malformed request

  static constexpr obs::FamilySpec kKind{"akadns_zone_transfer_total", "kind",
                                         "zone transfer responses served"};
  static constexpr obs::SeriesRow<TransferStats> kSeries[] = {
      {kKind, "axfr", &TransferStats::axfr_served},
      {kKind, "ixfr_incremental", &TransferStats::ixfr_incremental},
      {kKind, "ixfr_fallback", &TransferStats::ixfr_fallback},
      {kKind, "up_to_date", &TransferStats::up_to_date},
      {kKind, "refused", &TransferStats::refused},
  };
};

/// What a transfer response resolved to on the client side.
struct TransferPayload {
  bool up_to_date = false;
  std::optional<zone::Zone> full;       // AXFR-style body
  std::vector<zone::ZoneDiff> deltas;   // IXFR delta chain
};

class TransferService {
 public:
  TransferService(const zone::ZoneStore& store, ChainProvider chain,
                  TransferConfig config = {})
      : store_(store), chain_(std::move(chain)), config_(config) {}

  static bool is_transfer_query(const dns::Message& query) {
    if (query.questions.empty()) return false;
    const dns::RecordType qtype = query.question().qtype;
    return qtype == dns::RecordType::AXFR || qtype == dns::RecordType::IXFR;
  }

  /// Answers one AXFR/IXFR query as a response-message sequence (AXFR
  /// spans messages; IXFR is always a single message). Unknown zones and
  /// malformed requests get one REFUSED message.
  std::vector<dns::Message> serve(const dns::Message& query);

  const TransferStats& stats() const noexcept { return stats_; }

  // -- client-side builders ------------------------------------------------

  /// NOTIFY (RFC 1996): tells a secondary that `apex` reached `serial`
  /// (current SOA in the answer section as the optional hint).
  static dns::Message make_notify(const dns::DnsName& apex, std::uint32_t serial,
                                  std::uint16_t transaction_id);

  /// The echoed NOTIFY acknowledgment.
  static dns::Message make_notify_ack(const dns::Message& notify);

  static bool is_notify(const dns::Message& message) {
    return message.header.opcode == dns::Opcode::Notify && !message.header.qr;
  }

  /// SOA probe a secondary sends each refresh interval.
  static dns::Message make_soa_query(const dns::DnsName& apex, std::uint16_t transaction_id);

  /// IXFR request carrying the client's current SOA in the authority
  /// section (RFC 1995 §3) so the server knows where to diff from.
  static dns::Message make_ixfr_query(const dns::DnsName& apex, std::uint32_t client_serial,
                                      std::uint16_t transaction_id);

  static dns::Message make_axfr_query(const dns::DnsName& apex, std::uint16_t transaction_id);

  /// Classifies a transfer response stream: up-to-date single-SOA, IXFR
  /// delta chain, or AXFR-style full body (each handled per RFC 1995 §4).
  /// `client_serial` disambiguates the single-SOA case.
  static Result<TransferPayload> parse_transfer_response(std::span<const dns::Message> stream,
                                                         std::uint32_t client_serial);

 private:
  std::vector<dns::Message> serve_axfr(const zone::Zone& zone, std::uint16_t id);
  std::vector<dns::Message> refuse(const dns::Message& query);
  /// Applies StreamMessage fates: a `fail` cuts the stream at that
  /// message, simulating a connection lost mid-transfer.
  std::vector<dns::Message> truncate_stream(std::vector<dns::Message> stream);

  const zone::ZoneStore& store_;
  ChainProvider chain_;
  TransferConfig config_;
  TransferStats stats_;
};

}  // namespace akadns::propagation

// Authoritative response construction.
//
// Turns a decoded query + the zone store into a response: answers,
// in-bailiwick CNAME chasing, referrals with glue, NXDOMAIN / NODATA with
// SOA, REFUSED outside hosted zones, and the dynamic-answer hook through
// which the Mapping Intelligence (§3.2) supplies load-balanced answers
// for CDN/GTM hostnames (keyed on the query source or its
// EDNS-Client-Subnet).
//
// Two implementations share one contract:
//   - the compiled path (default) resolves against the store's
//     CompiledZone snapshots and stitches precoded wire fragments
//     straight into the caller's buffer, consulting a per-machine answer
//     cache first — zero heap allocations steady-state;
//   - the interpreted path builds a dns::Message through Zone::lookup and
//     the full encoder. It remains the reference implementation: the
//     differential property suite asserts the two emit identical bytes,
//     and it serves everything the fast path declines (non-Query opcodes,
//     FORMERR, mapped answers, referral push).
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <span>

#include "common/sim_time.hpp"
#include "dns/message.hpp"
#include "dns/wire.hpp"
#include "obs/series.hpp"
#include "server/answer_cache.hpp"
#include "zone/zone_store.hpp"

namespace akadns::server {

/// A dynamic answer produced by the mapping system for one query.
struct MappedAnswer {
  std::vector<dns::ResourceRecord> answers;
  /// ECS scope the mapping decision applies to (echoed into the
  /// response's ECS option per RFC 7871).
  std::uint8_t ecs_scope_prefix_len = 0;
};

/// Hook consulted before static zone data for each question; returning
/// nullopt falls through to the zone content. Runs before the answer
/// cache too, so mapped (GTM) answers can never be served stale.
using MappingHook = std::function<std::optional<MappedAnswer>(
    const dns::Question& question, const Endpoint& client,
    const std::optional<dns::ClientSubnet>& ecs)>;

struct ResponderConfig {
  /// Ceiling applied to the client's advertised EDNS UDP payload size
  /// (DNS Flag Day 2020: 1232 avoids IP fragmentation on virtually every
  /// path). Clients advertise arbitrary values — a spoofed-source flood
  /// advertising 65535 would otherwise turn the server into an
  /// amplification cannon. Advertisements below 512 are raised to 512
  /// (RFC 6891 §6.2.3: values below 512 are treated as 512).
  std::size_t edns_udp_payload_max = 1232;
  /// Serve from CompiledZone snapshots / wire fragments (the interpreted
  /// Message path stays available as the differential reference).
  bool enable_compiled_path = true;
  /// Consult the per-machine answer cache (compiled path only).
  bool enable_answer_cache = true;
  /// Bound on cached responses (FIFO eviction beyond this).
  std::size_t answer_cache_entries = 4096;
};

/// §5.2 "Improvements": supplies answers to push alongside a referral so
/// the resolver need not query the lowlevels in the same resolution
/// (deployable with DNS-over-HTTPS server push). Returning an empty
/// vector sends a plain referral.
using ReferralPushHook = std::function<std::vector<dns::ResourceRecord>(
    const dns::Question& question, const Endpoint& client)>;

struct ResponderStats {
  obs::Counter responses;
  obs::Counter noerror;
  obs::Counter nxdomain;
  obs::Counter nodata;
  obs::Counter refused;
  obs::Counter formerr;
  obs::Counter notimp;
  obs::Counter servfail;
  obs::Counter referrals;
  obs::Counter wildcard_answers;
  obs::Counter cname_chases;
  obs::Counter mapped_answers;
  obs::Counter pushed_answers;
  // Datapath breakdown: every wire response is exactly one of these.
  obs::Counter compiled_answers;     // stitched from precompiled fragments
  obs::Counter cache_hits;           // replayed from the answer cache
  obs::Counter interpreted_answers;  // built via the Message encoder

  static constexpr obs::FamilySpec kRcode{"akadns_responses_by_rcode_total", "rcode",
                                          "responses split by rcode"};
  static constexpr obs::FamilySpec kFeature{"akadns_answer_features_total", "kind",
                                            "answer-construction features exercised"};
  static constexpr obs::FamilySpec kPath{"akadns_answer_path_total", "path",
                                         "which datapath produced each response"};
  static constexpr obs::SeriesRow<ResponderStats> kSeries[] = {
      {{"akadns_responses_total", "", "wire responses produced"}, "",
       &ResponderStats::responses},
      {kRcode, "noerror", &ResponderStats::noerror},
      {kRcode, "nxdomain", &ResponderStats::nxdomain},
      {kRcode, "refused", &ResponderStats::refused},
      {kRcode, "formerr", &ResponderStats::formerr},
      {kRcode, "notimp", &ResponderStats::notimp},
      {kRcode, "servfail", &ResponderStats::servfail},
      {kFeature, "nodata", &ResponderStats::nodata},
      {kFeature, "referral", &ResponderStats::referrals},
      {kFeature, "wildcard", &ResponderStats::wildcard_answers},
      {kFeature, "cname_chase", &ResponderStats::cname_chases},
      {kFeature, "mapped", &ResponderStats::mapped_answers},
      {kFeature, "pushed", &ResponderStats::pushed_answers},
      {kPath, "compiled", &ResponderStats::compiled_answers},
      {kPath, "cache", &ResponderStats::cache_hits},
      {kPath, "interpreted", &ResponderStats::interpreted_answers},
  };

  /// Fraction of fast-path responses served straight from the cache.
  double cache_hit_rate() const noexcept {
    const std::uint64_t fast = cache_hits + compiled_answers;
    return fast ? static_cast<double>(cache_hits) / static_cast<double>(fast) : 0.0;
  }
};

class Responder {
 public:
  explicit Responder(const zone::ZoneStore& store, ResponderConfig config = {});

  /// Builds the response for a decoded query message (interpreted path;
  /// the reference implementation).
  dns::Message respond(const dns::Message& query, const Endpoint& client);

  /// Convenience: wire in, wire out. Returns nullopt when the packet is
  /// too mangled to even answer FORMERR (no parseable header/question).
  /// `wire_size_limit` selects the transport semantics: 0 (UDP) derives
  /// the truncation limit from the clamped EDNS advertisement; non-zero
  /// (TCP — pass dns::kMaxMessageSize) uses that limit verbatim and
  /// bypasses the answer cache, whose keys are UDP-shaped.
  std::optional<std::vector<std::uint8_t>> respond_wire(std::span<const std::uint8_t> wire,
                                                        const Endpoint& client,
                                                        SimTime now = SimTime::origin(),
                                                        std::size_t wire_size_limit = 0);

  /// The pipeline's zero-reparse path: answers from a QueryView decoded
  /// once at receive(), completing the EDNS walk in place, into `out`
  /// (reused capacity — the zero-allocation per-query form the
  /// nameserver drives). Never re-parses the header or question; a
  /// mangled record tail degrades to the FORMERR salvage answer. Always
  /// produces response bytes.
  void respond_view_into(std::span<const std::uint8_t> wire, dns::QueryView& view,
                         const Endpoint& client, SimTime now, std::vector<std::uint8_t>& out,
                         std::size_t wire_size_limit = 0);

  /// The truncation limit a UDP response to `edns` gets: the advertised
  /// payload size clamped to [512, edns_udp_payload_max], or RFC 1035's
  /// 512 without EDNS. Exposed so transports and tests agree on one
  /// definition.
  std::size_t effective_udp_payload(const std::optional<dns::Edns>& edns) const noexcept {
    constexpr std::size_t kRfc1035Payload = 512;
    if (!edns) return kRfc1035Payload;
    return std::clamp<std::size_t>(edns->udp_payload_size, kRfc1035Payload,
                                   config_.edns_udp_payload_max);
  }

  void set_mapping_hook(MappingHook hook) { mapping_hook_ = std::move(hook); }
  void set_referral_push_hook(ReferralPushHook hook) { push_hook_ = std::move(hook); }

  const ResponderStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  const AnswerCache& answer_cache() const noexcept { return cache_; }
  AnswerCache& answer_cache() noexcept { return cache_; }

 private:
  /// Resolves one question into the response being assembled; returns the
  /// rcode for the header. `mapped_state` carries a mapping-hook result
  /// already obtained by the caller (so the hook runs exactly once per
  /// query); when null the hook is consulted here.
  dns::Rcode resolve(const dns::Question& question, const Endpoint& client,
                     const std::optional<dns::ClientSubnet>& ecs, dns::Message& response,
                     const std::optional<MappedAnswer>* mapped_state);

  /// Shared core behind respond() and the interpreted fallbacks: operates
  /// on the pre-extracted header/question/EDNS pieces so neither entry
  /// point ever re-decodes. `question` may be null (empty question
  /// section).
  dns::Message respond_core(const dns::Header& query_header, std::size_t question_count,
                            const dns::Question* question,
                            const std::optional<dns::Edns>& edns, const Endpoint& client,
                            const std::optional<MappedAnswer>* mapped_state = nullptr);

  /// Compiled fast path: cache probe, then fragment-stitched resolution.
  /// Returns false — having emitted nothing and counted nothing — when
  /// the query needs the interpreted path (a referral with the push hook
  /// set). `max_size` is the already-computed truncation limit;
  /// `use_cache` is false for transports the cache keys cannot
  /// distinguish (TCP).
  bool try_compiled(const dns::Question& question, const dns::Header& query_header,
                    const std::optional<dns::Edns>& edns, SimTime now, std::size_t max_size,
                    bool use_cache, std::vector<std::uint8_t>& out);

  void count_rcode(dns::Rcode rcode) noexcept;

  const zone::ZoneStore& store_;
  ResponderConfig config_;
  MappingHook mapping_hook_;
  ReferralPushHook push_hook_;
  ResponderStats stats_;
  AnswerCache cache_;
};

}  // namespace akadns::server

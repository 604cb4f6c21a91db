#include "server/responder.hpp"

#include <algorithm>
#include <array>

#include "dns/wire.hpp"

namespace akadns::server {

using dns::CnameRecord;
using dns::DnsName;
using dns::Message;
using dns::Question;
using dns::Rcode;
using dns::RecordType;

Responder::Responder(const zone::ZoneStore& store, ResponderConfig config)
    : store_(store), config_(config), cache_(config.answer_cache_entries) {}

void Responder::count_rcode(Rcode rcode) noexcept {
  switch (rcode) {
    case Rcode::NoError: ++stats_.noerror; break;
    case Rcode::NxDomain: ++stats_.nxdomain; break;
    case Rcode::Refused: ++stats_.refused; break;
    case Rcode::ServFail: ++stats_.servfail; break;
    default: break;
  }
}

Rcode Responder::resolve(const Question& question, const Endpoint& client,
                         const std::optional<dns::ClientSubnet>& ecs, Message& response,
                         const std::optional<MappedAnswer>* mapped_state) {
  // 1. Mapping Intelligence hook: dynamic answers (CDN/GTM) win over
  //    static zone data for the names the mapping system owns. A caller
  //    that already consulted the hook passes the outcome in so the hook
  //    runs exactly once per query.
  const std::optional<MappedAnswer> mapped_local =
      (mapped_state == nullptr && mapping_hook_) ? mapping_hook_(question, client, ecs)
                                                 : std::nullopt;
  const std::optional<MappedAnswer>& mapped = mapped_state ? *mapped_state : mapped_local;
  if (mapped) {
    response.answers.insert(response.answers.end(), mapped->answers.begin(),
                            mapped->answers.end());
    if (response.edns && response.edns->client_subnet) {
      response.edns->client_subnet->scope_prefix_len = mapped->ecs_scope_prefix_len;
    }
    ++stats_.mapped_answers;
    return Rcode::NoError;
  }

  DnsName qname = question.name;
  Rcode rcode = Rcode::NoError;
  for (int link = 0; link <= kMaxCnameChain; ++link) {
    const zone::ZonePtr zone = store_.find_best_zone(qname);
    if (!zone) {
      // Not ours. For the original qname that means REFUSED; mid-chain it
      // just ends the chase (the resolver follows the CNAME externally).
      if (link == 0) return Rcode::Refused;
      return rcode;
    }
    auto result = zone->lookup(qname, question.qtype);
    if (result.wildcard_match) ++stats_.wildcard_answers;
    switch (result.status) {
      case zone::LookupStatus::Answer:
        // The lookup result is already a private copy — move the records
        // into the response instead of copying their names again.
        response.answers.insert(response.answers.end(),
                                std::make_move_iterator(result.records.begin()),
                                std::make_move_iterator(result.records.end()));
        return Rcode::NoError;
      case zone::LookupStatus::CnameChase: {
        ++stats_.cname_chases;
        qname = std::get<CnameRecord>(result.records.front().rdata).target;
        response.answers.insert(response.answers.end(),
                                std::make_move_iterator(result.records.begin()),
                                std::make_move_iterator(result.records.end()));
        continue;
      }
      case zone::LookupStatus::Referral: {
        ++stats_.referrals;
        response.authorities.insert(response.authorities.end(),
                                    std::make_move_iterator(result.authority.begin()),
                                    std::make_move_iterator(result.authority.end()));
        response.additionals.insert(response.additionals.end(),
                                    std::make_move_iterator(result.additional.begin()),
                                    std::make_move_iterator(result.additional.end()));
        response.header.aa = false;  // referral is not authoritative data
        // §5.2 answer push: include the answer with the referral so the
        // resolver caches both the delegation and the records in one
        // round trip.
        if (push_hook_) {
          auto pushed = push_hook_(question, client);
          if (!pushed.empty()) {
            ++stats_.pushed_answers;
            response.answers.insert(response.answers.end(),
                                    std::make_move_iterator(pushed.begin()),
                                    std::make_move_iterator(pushed.end()));
          }
        }
        return Rcode::NoError;
      }
      case zone::LookupStatus::NoData:
        ++stats_.nodata;
        response.authorities.insert(response.authorities.end(),
                                    std::make_move_iterator(result.authority.begin()),
                                    std::make_move_iterator(result.authority.end()));
        return rcode;  // NOERROR (or earlier chain rcode)
      case zone::LookupStatus::NxDomain:
        response.authorities.insert(response.authorities.end(),
                                    std::make_move_iterator(result.authority.begin()),
                                    std::make_move_iterator(result.authority.end()));
        // RFC 2308: if the chain started with a CNAME, the rcode applies
        // to the final name.
        return Rcode::NxDomain;
    }
  }
  // CNAME chain too long: treat as server failure (loop protection).
  return Rcode::ServFail;
}

Message Responder::respond_core(const dns::Header& query_header, std::size_t question_count,
                                const Question* question,
                                const std::optional<dns::Edns>& edns, const Endpoint& client,
                                const std::optional<MappedAnswer>* mapped_state) {
  ++stats_.responses;
  // Only standard queries with exactly one question are served; this is
  // what production authoritatives do for the protocol subset we model.
  if (query_header.opcode != dns::Opcode::Query) {
    ++stats_.notimp;
    return dns::make_response(query_header, question, edns, Rcode::NotImp);
  }
  if (question_count != 1 || !question || question->qclass != dns::RecordClass::IN) {
    ++stats_.formerr;
    return dns::make_response(query_header, question, edns, Rcode::FormErr);
  }

  Message response =
      dns::make_response(query_header, question, edns, Rcode::NoError, /*authoritative=*/true);
  const std::optional<dns::ClientSubnet> ecs = edns ? edns->client_subnet : std::nullopt;
  const Rcode rcode = resolve(*question, client, ecs, response, mapped_state);
  response.header.rcode = rcode;
  count_rcode(rcode);
  if (rcode == Rcode::Refused) response.header.aa = false;
  return response;
}

bool Responder::try_compiled(const Question& question, const dns::Header& query_header,
                             const std::optional<dns::Edns>& edns, SimTime now,
                             std::size_t max_size, bool use_cache,
                             std::vector<std::uint8_t>& out) {
  // 1. Answer cache: a hit replays the finished wire (id patched) and the
  //    stat delta its miss counted, so cached and uncached queries are
  //    indistinguishable in every counter.
  if (use_cache) {
    cache_.sync_generation(store_.layout_generation());
    if (const auto hit = cache_.lookup(question, query_header.rd, edns, now, query_header.id,
                                       out)) {
      ++stats_.responses;
      ++stats_.cache_hits;
      count_rcode(hit->rcode);
      stats_.nodata += hit->nodata;
      stats_.referrals += hit->referrals;
      stats_.wildcard_answers += hit->wildcard_answers;
      stats_.cname_chases += hit->cname_chases;
      return true;
    }
  }

  // 2. Fragment-stitched resolution: the same chase loop as resolve(),
  //    but over CompiledZone snapshots. Each link's snapshot is pinned so
  //    its fragments stay alive through encoding even if a concurrent
  //    republish swaps the store, and each zone's stamp is kept for the
  //    cache entry, which a republish of any of them makes stale.
  std::array<zone::CompiledZonePtr, kMaxChainPins> pins;
  ChainStamps reads;
  std::array<dns::FragmentSpan, kMaxChainPins> answer_spans;
  std::size_t n_answers = 0;
  dns::FragmentSpan authority_span;
  dns::FragmentSpan additional_span;
  CachedStatDelta delta;
  std::uint32_t min_ttl = UINT32_MAX;
  bool authoritative = true;
  bool done = false;
  Rcode rcode = Rcode::NoError;

  const DnsName* qname = &question.name;
  for (int link = 0; !done && link <= kMaxCnameChain; ++link) {
    zone::ZoneHandle found = store_.find_best(*qname);
    if (!found.zone) {
      if (link == 0) {
        rcode = Rcode::Refused;  // not ours — the common attack outcome
        authoritative = false;
      }
      done = true;  // mid-chain: the resolver follows the CNAME externally
      break;
    }
    const zone::CompiledAnswer answer = found.zone->lookup(*qname, question.qtype);
    reads.add(found.stamp);
    pins[static_cast<std::size_t>(link)] = std::move(found.zone);
    if (answer.wildcard_match) ++delta.wildcard_answers;
    min_ttl = std::min(min_ttl, answer.min_ttl);
    switch (answer.status) {
      case zone::LookupStatus::Answer:
        answer_spans[n_answers++] = {answer.answers,
                                     answer.wildcard_match ? qname : nullptr};
        done = true;
        break;
      case zone::LookupStatus::CnameChase:
        ++delta.cname_chases;
        answer_spans[n_answers++] = {answer.answers,
                                     answer.wildcard_match ? qname : nullptr};
        qname = answer.cname_target;
        break;
      case zone::LookupStatus::Referral:
        if (push_hook_) return false;  // answer push builds Messages
        ++delta.referrals;
        authority_span = {answer.authority, nullptr};
        additional_span = {answer.additional, nullptr};
        authoritative = false;
        done = true;
        break;
      case zone::LookupStatus::NoData:
        ++delta.nodata;
        authority_span = {answer.authority, nullptr};
        done = true;
        break;
      case zone::LookupStatus::NxDomain:
        authority_span = {answer.authority, nullptr};
        rcode = Rcode::NxDomain;
        done = true;
        break;
    }
  }
  if (!done) rcode = Rcode::ServFail;  // chain too long (answers kept, as interpreted)

  // 3. Header + response EDNS exactly as dns::make_response builds them.
  dns::FragmentMessage fm;
  fm.header.id = query_header.id;
  fm.header.qr = true;
  fm.header.opcode = query_header.opcode;
  fm.header.aa = authoritative;
  fm.header.rd = query_header.rd;
  fm.header.rcode = rcode;
  fm.question = &question;
  std::optional<dns::Edns> response_edns;
  if (edns) {
    response_edns.emplace();
    response_edns->udp_payload_size = 4096;
    response_edns->client_subnet = edns->client_subnet;
  }
  fm.edns = &response_edns;
  fm.answers = {answer_spans.data(), n_answers};
  fm.authorities = {&authority_span, authority_span.size() ? 1u : 0u};
  fm.additionals = {&additional_span, additional_span.size() ? 1u : 0u};
  dns::encode_fragments(fm, {.max_size = max_size}, out);

  ++stats_.responses;
  ++stats_.compiled_answers;
  delta.rcode = rcode;
  count_rcode(rcode);
  stats_.nodata += delta.nodata;
  stats_.referrals += delta.referrals;
  stats_.wildcard_answers += delta.wildcard_answers;
  stats_.cname_chases += delta.cname_chases;

  // 4. Cacheable: positive or negative data with a real TTL. REFUSED is
  //    never cached (attacker-controlled keyspace) and ServFail never
  //    either (loop protection, not data).
  if (use_cache && min_ttl != UINT32_MAX && min_ttl > 0 &&
      (rcode == Rcode::NoError || rcode == Rcode::NxDomain)) {
    cache_.insert(question, query_header.rd, edns, now, min_ttl, delta, reads, out);
  }
  return true;
}

Message Responder::respond(const Message& query, const Endpoint& client) {
  return respond_core(query.header, query.questions.size(),
                      query.questions.empty() ? nullptr : &query.questions[0], query.edns,
                      client);
}

void Responder::respond_view_into(std::span<const std::uint8_t> wire, dns::QueryView& view,
                                  const Endpoint& client, SimTime now,
                                  std::vector<std::uint8_t>& out,
                                  std::size_t wire_size_limit) {
  if (!dns::decode_query_edns(wire, view)) {
    // Mangled record tail: the header and question already decoded, so
    // salvage a FORMERR (what the seed path did after a failed full
    // decode) without re-parsing either.
    ++stats_.responses;
    ++stats_.formerr;
    ++stats_.interpreted_answers;
    dns::encode_into(
        dns::make_response(view.header, &view.question, std::nullopt, Rcode::FormErr, false),
        {}, out);
    return;
  }
  // One truncation limit per query, shared by every path below: TCP
  // callers pass their frame ceiling; UDP derives it from the clamped
  // EDNS advertisement (never trusting the client's raw bufsize).
  const bool udp_semantics = wire_size_limit == 0;
  const std::size_t max_size =
      udp_semantics ? effective_udp_payload(view.edns) : wire_size_limit;

  if (config_.enable_compiled_path && view.header.opcode == dns::Opcode::Query &&
      view.qdcount == 1 && view.question.qclass == dns::RecordClass::IN) {
    // The mapping hook runs before cache and zone data; a mapped answer
    // takes the interpreted encoder (dynamic, never cached).
    std::optional<MappedAnswer> mapped;
    if (mapping_hook_) {
      const std::optional<dns::ClientSubnet> ecs =
          view.edns ? view.edns->client_subnet : std::nullopt;
      mapped = mapping_hook_(view.question, client, ecs);
    }
    if (!mapped && try_compiled(view.question, view.header, view.edns, now, max_size,
                                config_.enable_answer_cache && udp_semantics, out)) {
      return;
    }
    // Fallback (mapped answer, referral push): interpreted path, with the
    // hook outcome handed over so it is not re-consulted.
    ++stats_.interpreted_answers;
    const Message response = respond_core(view.header, view.qdcount, &view.question, view.edns,
                                          client, &mapped);
    dns::encode_into(response, {.max_size = max_size}, out);
    return;
  }

  ++stats_.interpreted_answers;
  const Message response =
      respond_core(view.header, view.qdcount, &view.question, view.edns, client);
  dns::encode_into(response, {.max_size = max_size}, out);
}

std::optional<std::vector<std::uint8_t>> Responder::respond_wire(
    std::span<const std::uint8_t> wire, const Endpoint& client, SimTime now,
    std::size_t wire_size_limit) {
  auto view = dns::decode_query_view(wire);
  if (!view) return std::nullopt;
  std::vector<std::uint8_t> out;
  respond_view_into(wire, view.value(), client, now, out, wire_size_limit);
  return out;
}

}  // namespace akadns::server

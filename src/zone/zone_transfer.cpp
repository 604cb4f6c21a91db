#include "zone/zone_transfer.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace akadns::zone {

using dns::DnsName;
using dns::Message;
using dns::RecordType;
using dns::ResourceRecord;
using dns::SoaRecord;

// ---------------------------------------------------------------------------
// AXFR
// ---------------------------------------------------------------------------

std::vector<Message> axfr_serialize(const Zone& zone, const AxfrOptions& options) {
  const auto soa = zone.soa();
  if (!soa) throw std::invalid_argument("cannot AXFR a zone without an apex SOA");

  // all_records() puts the SOA first; append the closing SOA.
  std::vector<ResourceRecord> records = zone.all_records();
  records.push_back(*soa);

  std::vector<Message> stream;
  const std::size_t per_message = std::max<std::size_t>(options.records_per_message, 1);
  for (std::size_t offset = 0; offset < records.size(); offset += per_message) {
    Message m;
    m.header.id = options.transaction_id;
    m.header.qr = true;
    m.header.aa = true;
    if (offset == 0) {
      m.questions.push_back(dns::Question{zone.apex(), RecordType::ANY,
                                          dns::RecordClass::IN});
    }
    const std::size_t end = std::min(offset + per_message, records.size());
    m.answers.assign(records.begin() + static_cast<std::ptrdiff_t>(offset),
                     records.begin() + static_cast<std::ptrdiff_t>(end));
    stream.push_back(std::move(m));
  }
  return stream;
}

Result<Zone> axfr_assemble(std::span<const Message> stream) {
  auto fail = [](std::string what) { return Result<Zone>::failure(std::move(what)); };
  if (stream.empty()) return fail("empty AXFR stream");

  // Flatten answers, checking ids are consistent.
  std::vector<ResourceRecord> records;
  const std::uint16_t id = stream.front().header.id;
  for (const auto& message : stream) {
    if (message.header.id != id) return fail("inconsistent transaction ids in stream");
    if (!message.header.qr) return fail("AXFR stream contains a non-response");
    records.insert(records.end(), message.answers.begin(), message.answers.end());
  }
  if (records.size() < 2) return fail("AXFR stream too short");
  if (records.front().type() != RecordType::SOA) return fail("stream does not open with SOA");
  if (records.back().type() != RecordType::SOA) return fail("stream does not close with SOA");
  if (records.front() != records.back()) {
    return fail("opening and closing SOA differ (zone changed mid-transfer)");
  }

  const auto& soa = std::get<SoaRecord>(records.front().rdata);
  Zone zone(records.front().name, soa.serial);
  // Add every record once (the closing SOA duplicates the opening one).
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    if (i > 0 && records[i].type() == RecordType::SOA) {
      return fail("unexpected mid-stream SOA");
    }
    if (!zone.add(records[i])) {
      return fail("inadmissible record in transfer: " + records[i].to_string());
    }
  }
  return zone;
}

// ---------------------------------------------------------------------------
// IXFR
// ---------------------------------------------------------------------------

namespace {

/// Canonical multiset key for a record (owner + type + rdata, TTL
/// included: a TTL change is a delete+add in IXFR).
std::string record_key(const ResourceRecord& rr) {
  return rr.to_string();
}

}  // namespace

ZoneDiff diff_zones(const Zone& from, const Zone& to) {
  if (!(from.apex() == to.apex())) {
    throw std::invalid_argument("diff across different zones");
  }
  if (to.serial() <= from.serial()) {
    throw std::invalid_argument("diff target serial must increase");
  }
  ZoneDiff diff;
  diff.apex = from.apex();
  diff.from_serial = from.serial();
  diff.to_serial = to.serial();

  std::map<std::string, ResourceRecord> before, after;
  for (const auto& rr : from.all_records()) {
    if (rr.type() != RecordType::SOA) before.emplace(record_key(rr), rr);
  }
  for (const auto& rr : to.all_records()) {
    if (rr.type() != RecordType::SOA) after.emplace(record_key(rr), rr);
  }
  for (const auto& [key, rr] : before) {
    if (!after.contains(key)) diff.deletions.push_back(rr);
  }
  for (const auto& [key, rr] : after) {
    if (!before.contains(key)) diff.additions.push_back(rr);
  }
  return diff;
}

Result<Zone> apply_diff(const Zone& base, const ZoneDiff& diff) {
  auto fail = [](std::string what) { return Result<Zone>::failure(std::move(what)); };
  if (!(base.apex() == diff.apex)) return fail("diff is for a different zone");
  if (base.serial() != diff.from_serial) {
    return fail("serial mismatch: have " + std::to_string(base.serial()) + ", diff from " +
                std::to_string(diff.from_serial) + " (fall back to AXFR)");
  }
  if (!base.soa()) return fail("base zone lacks an SOA");

  // Copy, then touch only the diffed records: untouched RRsets carry over
  // verbatim (they were admissible in the base), so a small delta against
  // a big zone costs O(zone) copy + O(diff) edits instead of re-adding
  // and re-validating every record.
  Zone next = base;
  for (const auto& rr : diff.deletions) {
    if (rr.type() == RecordType::SOA) {
      return fail("deletion names the SOA (serials travel in the envelope): " + rr.to_string() +
                  " (fall back to AXFR)");
    }
    if (!next.remove_record(rr)) {
      return fail("deletion of a record the base does not hold: " + record_key(rr) +
                  " (fall back to AXFR)");
    }
  }
  next.set_soa_serial(diff.to_serial);
  for (const auto& rr : diff.additions) {
    if (!next.add(rr)) return fail("addition rejected: " + rr.to_string());
  }
  return next;
}

namespace {

ResourceRecord soa_with_serial(const DnsName& apex, std::uint32_t serial) {
  SoaRecord soa;
  soa.mname = apex;
  soa.rname = apex;
  soa.serial = serial;
  return ResourceRecord{apex, dns::RecordClass::IN, 3600, soa};
}

}  // namespace

dns::Message ixfr_serialize_chain(std::span<const ZoneDiff> chain,
                                  std::uint16_t transaction_id) {
  if (chain.empty()) throw std::invalid_argument("cannot serialize an empty IXFR chain");
  const DnsName& apex = chain.front().apex;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (!(chain[i].apex == apex)) throw std::invalid_argument("IXFR chain mixes apexes");
    if (chain[i].to_serial <= chain[i].from_serial) {
      throw std::invalid_argument("IXFR delta serial must increase");
    }
    if (i > 0 && chain[i].from_serial != chain[i - 1].to_serial) {
      throw std::invalid_argument("IXFR chain is not contiguous");
    }
  }
  const std::uint32_t latest = chain.back().to_serial;

  Message m;
  m.header.id = transaction_id;
  m.header.qr = true;
  m.header.aa = true;
  m.questions.push_back(dns::Question{apex, RecordType::ANY, dns::RecordClass::IN});

  // RFC 1995 layout: latest-SOA, then per delta old-SOA, deletions,
  // new-SOA, additions; the latest SOA closes the stream.
  m.answers.push_back(soa_with_serial(apex, latest));
  for (const ZoneDiff& diff : chain) {
    m.answers.push_back(soa_with_serial(apex, diff.from_serial));
    m.answers.insert(m.answers.end(), diff.deletions.begin(), diff.deletions.end());
    m.answers.push_back(soa_with_serial(apex, diff.to_serial));
    m.answers.insert(m.answers.end(), diff.additions.begin(), diff.additions.end());
  }
  m.answers.push_back(soa_with_serial(apex, latest));
  return m;
}

Result<std::vector<ZoneDiff>> ixfr_parse_chain(const dns::Message& message) {
  auto fail = [](std::string what) {
    return Result<std::vector<ZoneDiff>>::failure(std::move(what));
  };
  const auto& answers = message.answers;
  if (answers.size() < 4) return fail("IXFR message too short");
  if (answers.front().type() != RecordType::SOA) return fail("IXFR must open with SOA");
  if (answers.back().type() != RecordType::SOA) return fail("IXFR must close with SOA");
  const DnsName apex = answers.front().name;
  const std::uint32_t latest = std::get<SoaRecord>(answers.front().rdata).serial;
  if (std::get<SoaRecord>(answers.back().rdata).serial != latest) {
    return fail("closing SOA serial mismatch");
  }

  // Walk SOA-delimited segments: each delta is old-SOA, deletions,
  // new-SOA, additions; the additions run ends at the next SOA (the
  // following delta's old-SOA, or the closing SOA).
  std::vector<ZoneDiff> chain;
  std::size_t i = 1;
  while (i < answers.size() - 1) {
    if (answers[i].type() != RecordType::SOA) return fail("expected delta-opening SOA");
    ZoneDiff diff;
    diff.apex = apex;
    diff.from_serial = std::get<SoaRecord>(answers[i].rdata).serial;
    ++i;
    while (i < answers.size() && answers[i].type() != RecordType::SOA) {
      diff.deletions.push_back(answers[i]);
      ++i;
    }
    if (i == answers.size()) return fail("IXFR delta truncated before its new-serial SOA");
    diff.to_serial = std::get<SoaRecord>(answers[i].rdata).serial;
    ++i;
    while (i < answers.size() && answers[i].type() != RecordType::SOA) {
      diff.additions.push_back(answers[i]);
      ++i;
    }
    if (i == answers.size()) return fail("IXFR body missing the closing SOA");
    if (diff.to_serial <= diff.from_serial) return fail("IXFR delta serial does not increase");
    if (!chain.empty() && diff.from_serial != chain.back().to_serial) {
      return fail("IXFR chain is not contiguous (fall back to AXFR)");
    }
    chain.push_back(std::move(diff));
  }
  if (chain.empty()) return fail("IXFR body carries no delta");
  if (chain.back().to_serial != latest) {
    return fail("IXFR chain does not end at the announced serial");
  }
  return chain;
}

}  // namespace akadns::zone

// Adversarial transfer streams against the integrity guard: real AXFR
// and IXFR bodies produced by TransferService, then cut at every message
// boundary, corrupted, rolled back, and inflated — each one must be
// rejected with the right taxonomy reason, because the reject reason is
// what akadns_transfer_rejected_total reports and what an operator
// debugging a red chaos drill reads first.

#include "propagation/transfer_guard.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dns/wire.hpp"
#include "propagation/transfer_service.hpp"
#include "propagation/zone_journal.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::propagation {
namespace {

using dns::DnsName;
using dns::Message;
using dns::RecordType;
using dns::ResourceRecord;
using dns::SoaRecord;
using zone::Zone;
using zone::ZoneBuilder;

const DnsName kApex = DnsName::from("t.example");

Zone version(std::uint32_t serial) {
  ZoneBuilder builder("t.example", serial);
  builder.soa("ns1.t.example", "hostmaster.t.example", serial);
  builder.ns("@", "ns1.t.example");
  builder.a("ns1", "10.0.0.1");
  builder.a("www", "192.0.2." + std::to_string(serial % 250 + 1));
  builder.aaaa("www", "2001:db8::1");
  builder.txt("@", "v=spf1 -all");
  return builder.build();
}

// A server at serial `head` with a journal covering [journal_from, head].
struct Fixture {
  zone::ZoneStore store;
  ZoneJournal journal;

  Fixture(std::uint32_t head, std::uint32_t journal_from) {
    Zone prev = version(journal_from);
    for (std::uint32_t s = journal_from + 1; s <= head; ++s) {
      Zone next = version(s);
      journal.append(zone::diff_zones(prev, next));
      prev = std::move(next);
    }
    store.publish(std::move(prev));
  }

  TransferService service(TransferConfig config = {}) {
    return TransferService(
        store,
        [this](const DnsName& apex, std::uint32_t from, std::uint32_t to) {
          return journal.chain(apex, from, to);
        },
        config);
  }
};

// Encode/decode every message so the guard sees the same bytes a socket
// delivered, not in-memory structures the server never serialized.
std::vector<Message> through_the_wire(const std::vector<Message>& stream) {
  std::vector<Message> received;
  for (const auto& message : stream) {
    auto decoded = dns::decode(dns::encode(message));
    EXPECT_TRUE(decoded.ok()) << decoded.error();
    if (decoded.ok()) received.push_back(std::move(decoded).take());
  }
  return received;
}

std::size_t record_count(const std::vector<Message>& stream) {
  std::size_t total = 0;
  for (const auto& m : stream) total += m.answers.size();
  return total;
}

// Points at the `n`-th record of a flattened stream (mutable).
ResourceRecord& record_at(std::vector<Message>& stream, std::size_t n) {
  for (auto& m : stream) {
    if (n < m.answers.size()) return m.answers[n];
    n -= m.answers.size();
  }
  ADD_FAILURE() << "record index out of range";
  return stream.front().answers.front();
}

TEST(TransferGuard, CompleteAxfrStreamPasses) {
  Fixture fx(/*head=*/5, /*journal_from=*/3);
  auto service = fx.service({.axfr_records_per_message = 2, .fault_hooks = nullptr});
  const auto stream =
      through_the_wire(service.serve(TransferService::make_axfr_query(kApex, 7)));
  ASSERT_GE(stream.size(), 3u) << "fixture must split the body across messages";
  EXPECT_EQ(validate_stream(stream, /*client_serial=*/0), std::nullopt);
}

TEST(TransferGuard, AxfrCutAtEveryMessageBoundaryIsRejected) {
  // The core adversarial sweep: a connection dying between any two
  // messages of the stream must never yield a publishable prefix.
  Fixture fx(5, 3);
  auto service = fx.service({.axfr_records_per_message = 2, .fault_hooks = nullptr});
  const auto stream =
      through_the_wire(service.serve(TransferService::make_axfr_query(kApex, 7)));
  ASSERT_GE(stream.size(), 3u);

  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    const std::vector<Message> prefix(stream.begin(), stream.begin() + cut);
    const auto verdict = validate_stream(prefix, 0);
    ASSERT_TRUE(verdict.has_value()) << "prefix of " << cut << " messages published";
    if (cut == 0) {
      EXPECT_EQ(*verdict, TransferReject::Empty);
    } else {
      EXPECT_EQ(*verdict, TransferReject::Truncated)
          << "prefix of " << cut << " messages";
    }
  }
}

TEST(TransferGuard, IxfrCutAtEveryMessageAndRecordBoundaryIsRejected) {
  Fixture fx(/*head=*/6, /*journal_from=*/2);
  auto service = fx.service();
  auto stream =
      through_the_wire(service.serve(TransferService::make_ixfr_query(kApex, 3, 9)));
  ASSERT_EQ(validate_stream(stream, 3), std::nullopt);

  // IXFR rides one message, so the cut sweep runs per record instead.
  const std::size_t total = record_count(stream);
  ASSERT_GE(total, 4u);
  for (std::size_t keep = 1; keep + 1 < total; ++keep) {
    std::vector<Message> cut = stream;
    cut.front().answers.resize(keep);
    const auto verdict = validate_stream(cut, 3);
    ASSERT_TRUE(verdict.has_value()) << "prefix of " << keep << " records published";
  }
}

TEST(TransferGuard, SingleSoaIsUpToDateOnlyWhenNotAheadOfTheClient) {
  Fixture fx(6, 4);
  auto service = fx.service();
  const auto stream =
      through_the_wire(service.serve(TransferService::make_ixfr_query(kApex, 6, 9)));
  ASSERT_EQ(record_count(stream), 1u);

  // Client already at 6: coherent "you are current".
  EXPECT_EQ(validate_stream(stream, 6), std::nullopt);
  // Client at 4: a lone SOA announcing 6 is a body whose remainder was
  // cut before a single record arrived.
  EXPECT_EQ(validate_stream(stream, 4), TransferReject::Truncated);
}

TEST(TransferGuard, CorruptOpenerAndInteriorSoaAreRejected) {
  Fixture fx(5, 3);
  auto service = fx.service({.axfr_records_per_message = 2, .fault_hooks = nullptr});
  const auto good =
      through_the_wire(service.serve(TransferService::make_axfr_query(kApex, 7)));

  // Stream opening with a non-SOA record: structural corruption.
  std::vector<Message> headless = good;
  headless.front().answers.erase(headless.front().answers.begin());
  EXPECT_EQ(validate_stream(headless, 0), TransferReject::Corrupt);

  // An SOA in the interior of an AXFR body means two streams got
  // interleaved (the apex SOA may appear exactly twice: open + close).
  std::vector<Message> interleaved = good;
  const std::size_t total = record_count(interleaved);
  ResourceRecord opener = interleaved.front().answers.front();
  ResourceRecord& mid = record_at(interleaved, total / 2);
  ASSERT_NE(mid.type(), RecordType::SOA);
  mid = opener;
  EXPECT_EQ(validate_stream(interleaved, 0), TransferReject::Corrupt);
}

TEST(TransferGuard, SerialRegressionsNeverPublish) {
  // A full body landing below the client's serial is a rollback.
  Fixture fx(5, 3);
  auto service = fx.service();
  const auto axfr =
      through_the_wire(service.serve(TransferService::make_axfr_query(kApex, 7)));
  EXPECT_EQ(validate_stream(axfr, /*client_serial=*/9), TransferReject::SerialRegression);
  // Serial equality is benign (same version, not a rollback).
  EXPECT_EQ(validate_stream(axfr, /*client_serial=*/5), std::nullopt);

  // An IXFR delta whose markers walk backwards is a confused (or
  // malicious) primary trying to regress us one delta at a time.
  Fixture fx2(6, 2);
  auto service2 = fx2.service();
  auto ixfr =
      through_the_wire(service2.serve(TransferService::make_ixfr_query(kApex, 3, 9)));
  ASSERT_EQ(validate_stream(ixfr, 3), std::nullopt);
  // The first interior SOA is the first delta's "from" marker; pushing
  // it above its "to" marker makes the delta descend.
  bool tampered = false;
  const std::size_t total = record_count(ixfr);
  for (std::size_t i = 1; i + 1 < total && !tampered; ++i) {
    ResourceRecord& rr = record_at(ixfr, i);
    if (rr.type() == RecordType::SOA) {
      std::get<SoaRecord>(rr.rdata).serial = 99;
      tampered = true;
    }
  }
  ASSERT_TRUE(tampered);
  EXPECT_EQ(validate_stream(ixfr, 3), TransferReject::SerialRegression);
}

TEST(TransferGuard, OddIxfrMarkerCountIsTruncated) {
  Fixture fx(6, 2);
  auto service = fx.service();
  auto stream =
      through_the_wire(service.serve(TransferService::make_ixfr_query(kApex, 3, 9)));
  // Remove one interior SOA marker: the (from, to) pairing no longer
  // closes, which is what a mid-delta cut looks like after reassembly.
  auto& answers = stream.front().answers;
  for (std::size_t i = 1; i + 1 < answers.size(); ++i) {
    if (answers[i].type() == RecordType::SOA) {
      answers.erase(answers.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  const auto verdict = validate_stream(stream, 3);
  ASSERT_TRUE(verdict.has_value());
}

TEST(TransferGuard, OversizeStreamHitsTheRecordBudget) {
  Fixture fx(5, 3);
  auto service = fx.service();
  const auto stream =
      through_the_wire(service.serve(TransferService::make_axfr_query(kApex, 7)));
  ASSERT_GT(record_count(stream), 3u);
  EXPECT_EQ(validate_stream(stream, 0, TransferLimits{.max_records = 3}),
            TransferReject::Oversize);
  // The same stream passes under the default budget.
  EXPECT_EQ(validate_stream(stream, 0), std::nullopt);
}

TEST(TransferGuard, RefusalAndEmptyStreamsAreRejected) {
  Fixture fx(5, 3);
  auto service = fx.service();
  const auto refusal = through_the_wire(
      service.serve(TransferService::make_axfr_query(DnsName::from("nowhere.example"), 7)));
  ASSERT_FALSE(refusal.empty());
  EXPECT_EQ(validate_stream(refusal, 0), TransferReject::Refused);

  EXPECT_EQ(validate_stream({}, 0), TransferReject::Empty);

  // NoError but zero records: still nothing to publish.
  Message hollow;
  hollow.header.qr = true;
  EXPECT_EQ(validate_stream(std::vector<Message>{hollow}, 0), TransferReject::Empty);
}

}  // namespace
}  // namespace akadns::propagation

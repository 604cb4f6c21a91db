#include "propagation/transfer_service.hpp"

#include <gtest/gtest.h>

#include "dns/wire.hpp"
#include "propagation/zone_journal.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::propagation {
namespace {

using dns::DnsName;
using dns::RecordType;
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

// A server at serial `head`, with a journal covering [journal_from, head].
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

// Real transfers cross a wire: encode and decode every message before the
// client-side parse, so the test covers the same bytes a socket would.
std::vector<dns::Message> through_the_wire(const std::vector<dns::Message>& stream) {
  std::vector<dns::Message> received;
  for (const auto& message : stream) {
    auto decoded = dns::decode(dns::encode(message));
    EXPECT_TRUE(decoded.ok()) << decoded.error();
    if (decoded.ok()) received.push_back(std::move(decoded).take());
  }
  return received;
}

TEST(TransferService, AxfrStreamsTheWholeZone) {
  Fixture fx(/*head=*/5, /*journal_from=*/3);
  auto service = fx.service();

  const auto stream = through_the_wire(service.serve(TransferService::make_axfr_query(kApex, 7)));
  ASSERT_FALSE(stream.empty());
  const auto payload = TransferService::parse_transfer_response(stream, /*client_serial=*/0);
  ASSERT_TRUE(payload.ok()) << payload.error();
  ASSERT_TRUE(payload.value().full.has_value());
  EXPECT_EQ(payload.value().full->serial(), 5u);
  EXPECT_EQ(payload.value().full->all_records(), version(5).all_records());
  EXPECT_EQ(service.stats().axfr_served, 1u);
}

TEST(TransferService, AxfrSplitsAtConfiguredMessageSize) {
  Fixture fx(5, 3);
  auto service = fx.service({.axfr_records_per_message = 2, .fault_hooks = nullptr});
  const auto stream = service.serve(TransferService::make_axfr_query(kApex, 7));
  EXPECT_GT(stream.size(), 1u);
  const auto payload =
      TransferService::parse_transfer_response(through_the_wire(stream), 0);
  ASSERT_TRUE(payload.ok()) << payload.error();
  ASSERT_TRUE(payload.value().full.has_value());
  EXPECT_EQ(payload.value().full->all_records(), version(5).all_records());
}

TEST(TransferService, IxfrAnswersIncrementallyFromTheJournal) {
  Fixture fx(/*head=*/6, /*journal_from=*/2);
  auto service = fx.service();

  const auto stream =
      through_the_wire(service.serve(TransferService::make_ixfr_query(kApex, 3, 9)));
  ASSERT_EQ(stream.size(), 1u);  // IXFR is always a single message
  const auto payload = TransferService::parse_transfer_response(stream, 3);
  ASSERT_TRUE(payload.ok()) << payload.error();
  EXPECT_FALSE(payload.value().full.has_value());
  ASSERT_EQ(payload.value().deltas.size(), 3u);  // 3->4->5->6

  // Replaying the chain reproduces the server's zone exactly.
  Zone client = version(3);
  for (const auto& delta : payload.value().deltas) {
    auto next = zone::apply_diff(client, delta);
    ASSERT_TRUE(next.ok()) << next.error();
    client = std::move(next).take();
  }
  EXPECT_EQ(client.all_records(), version(6).all_records());
  EXPECT_EQ(service.stats().ixfr_incremental, 1u);
}

TEST(TransferService, IxfrFallsBackToFullBodyOnJournalMiss) {
  Fixture fx(/*head=*/6, /*journal_from=*/4);
  auto service = fx.service();

  // Client serial 1 is below the journal window: RFC 1995 full-body form.
  const auto stream =
      through_the_wire(service.serve(TransferService::make_ixfr_query(kApex, 1, 9)));
  const auto payload = TransferService::parse_transfer_response(stream, 1);
  ASSERT_TRUE(payload.ok()) << payload.error();
  ASSERT_TRUE(payload.value().full.has_value());
  EXPECT_EQ(payload.value().full->all_records(), version(6).all_records());
  EXPECT_EQ(service.stats().ixfr_fallback, 1u);
}

TEST(TransferService, IxfrUpToDateIsASingleSoa) {
  Fixture fx(6, 4);
  auto service = fx.service();

  const auto stream =
      through_the_wire(service.serve(TransferService::make_ixfr_query(kApex, 6, 9)));
  ASSERT_EQ(stream.size(), 1u);
  ASSERT_EQ(stream[0].answers.size(), 1u);
  EXPECT_EQ(stream[0].answers[0].type(), RecordType::SOA);
  const auto payload = TransferService::parse_transfer_response(stream, 6);
  ASSERT_TRUE(payload.ok()) << payload.error();
  EXPECT_TRUE(payload.value().up_to_date);
  EXPECT_EQ(service.stats().up_to_date, 1u);
}

TEST(TransferService, RefusesUnknownApex) {
  Fixture fx(6, 4);
  auto service = fx.service();

  const auto apex = DnsName::from("nowhere.example");
  for (const auto& query : {TransferService::make_axfr_query(apex, 1),
                            TransferService::make_ixfr_query(apex, 2, 1)}) {
    const auto stream = service.serve(query);
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream[0].header.rcode, dns::Rcode::Refused);
    // A refusal is the client's fall-back-and-escalate signal, never a
    // parsable transfer body.
    EXPECT_FALSE(TransferService::parse_transfer_response(stream, 2).ok());
  }
  EXPECT_EQ(service.stats().refused, 2u);
}

TEST(TransferService, TransferQueriesAreRecognized) {
  EXPECT_TRUE(TransferService::is_transfer_query(TransferService::make_axfr_query(kApex, 1)));
  EXPECT_TRUE(TransferService::is_transfer_query(TransferService::make_ixfr_query(kApex, 3, 1)));
  EXPECT_FALSE(TransferService::is_transfer_query(TransferService::make_soa_query(kApex, 1)));
}

TEST(TransferService, NotifyRoundTrip) {
  const auto notify = TransferService::make_notify(kApex, 42, 77);
  EXPECT_TRUE(TransferService::is_notify(notify));
  EXPECT_EQ(notify.header.id, 77u);
  ASSERT_FALSE(notify.questions.empty());
  EXPECT_EQ(notify.question().name, kApex);
  EXPECT_EQ(notify.question().qtype, RecordType::SOA);

  // The wire must carry it unchanged.
  auto decoded = dns::decode(dns::encode(notify));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(TransferService::is_notify(decoded.value()));

  const auto ack = TransferService::make_notify_ack(decoded.value());
  EXPECT_TRUE(ack.header.qr);
  EXPECT_EQ(ack.header.id, 77u);
  EXPECT_EQ(ack.header.opcode, dns::Opcode::Notify);
  EXPECT_FALSE(TransferService::is_notify(ack));
}

TEST(TransferService, SoaProbeShape) {
  const auto probe = TransferService::make_soa_query(kApex, 12);
  EXPECT_EQ(probe.header.id, 12u);
  EXPECT_FALSE(probe.header.qr);
  ASSERT_FALSE(probe.questions.empty());
  EXPECT_EQ(probe.question().name, kApex);
  EXPECT_EQ(probe.question().qtype, RecordType::SOA);
}

TEST(TransferService, IxfrQueryCarriesClientSoa) {
  // RFC 1995 §3: the client's current SOA rides in the authority section
  // so the server knows where to diff from.
  const auto query = TransferService::make_ixfr_query(kApex, 17, 3);
  EXPECT_EQ(query.question().qtype, RecordType::IXFR);
  ASSERT_FALSE(query.authorities.empty());
  ASSERT_EQ(query.authorities[0].type(), RecordType::SOA);
  EXPECT_EQ(std::get<dns::SoaRecord>(query.authorities[0].rdata).serial, 17u);
}

}  // namespace
}  // namespace akadns::propagation

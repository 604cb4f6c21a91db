#include "zone/zone_transfer.hpp"

#include <gtest/gtest.h>

#include "dns/wire.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::zone {
namespace {

using dns::DnsName;
using dns::RecordType;

Zone sample_zone(std::uint32_t serial = 10) {
  return ZoneBuilder("ex.com", serial)
      .soa("ns1.ex.com", "hostmaster.ex.com", serial)
      .ns("@", "ns1.ex.com")
      .a("ns1", "10.0.0.1")
      .a("www", "93.184.216.34")
      .aaaa("www", "2001:db8::34")
      .cname("ftp", "www.ex.com")
      .txt("@", "v=spf1 -all")
      .a("*.apps", "10.7.7.7")
      .build();
}

TEST(Axfr, RoundTripSingleMessage) {
  const Zone original = sample_zone();
  const auto stream = axfr_serialize(original);
  ASSERT_EQ(stream.size(), 1u);
  // Envelope: first and last answer are the apex SOA.
  EXPECT_EQ(stream[0].answers.front().type(), RecordType::SOA);
  EXPECT_EQ(stream[0].answers.back().type(), RecordType::SOA);

  const auto rebuilt = axfr_assemble(stream);
  ASSERT_TRUE(rebuilt) << rebuilt.error();
  EXPECT_EQ(rebuilt.value().serial(), original.serial());
  EXPECT_EQ(rebuilt.value().record_count(), original.record_count());
  EXPECT_EQ(rebuilt.value().all_records(), original.all_records());
}

TEST(Axfr, MultiMessageTransfer) {
  const Zone original = sample_zone();
  const auto stream = axfr_serialize(original, {.records_per_message = 3});
  EXPECT_GT(stream.size(), 2u);
  const auto rebuilt = axfr_assemble(stream);
  ASSERT_TRUE(rebuilt) << rebuilt.error();
  EXPECT_EQ(rebuilt.value().all_records(), original.all_records());
}

TEST(Axfr, SurvivesWireEncoding) {
  // The stream consists of genuine DNS messages: wire-encode and decode
  // each before reassembly, as a real transfer would.
  const Zone original = sample_zone();
  const auto stream = axfr_serialize(original, {.records_per_message = 4});
  std::vector<dns::Message> received;
  for (const auto& message : stream) {
    auto decoded = dns::decode(dns::encode(message));
    ASSERT_TRUE(decoded) << decoded.error();
    received.push_back(std::move(decoded).take());
  }
  const auto rebuilt = axfr_assemble(received);
  ASSERT_TRUE(rebuilt) << rebuilt.error();
  EXPECT_EQ(rebuilt.value().all_records(), original.all_records());
}

TEST(Axfr, RejectsTamperedStreams) {
  const Zone original = sample_zone();
  auto stream = axfr_serialize(original, {.records_per_message = 3});

  // Missing closing SOA.
  auto truncated = stream;
  truncated.back().answers.pop_back();
  EXPECT_FALSE(axfr_assemble(truncated));

  // Inconsistent transaction ids.
  auto bad_ids = stream;
  bad_ids.back().header.id = 999;
  EXPECT_FALSE(axfr_assemble(bad_ids));

  // Empty stream.
  EXPECT_FALSE(axfr_assemble(std::span<const dns::Message>{}));
}

TEST(Axfr, RejectsSerialChangeMidTransfer) {
  // Opening and closing SOA must be identical (zone changed mid-stream).
  const Zone v1 = sample_zone(10);
  const Zone v2 = sample_zone(11);
  auto stream = axfr_serialize(v1);
  const auto closing = axfr_serialize(v2);
  stream[0].answers.back() = closing[0].answers.back();
  EXPECT_FALSE(axfr_assemble(stream));
}

TEST(Ixfr, DiffCapturesChanges) {
  const Zone v1 = sample_zone(10);
  Zone v2 = sample_zone(11);
  v2.remove(DnsName::from("www.ex.com"), RecordType::A);
  v2.add(dns::make_a(DnsName::from("www.ex.com"), Ipv4Addr(198, 51, 100, 7), 300));
  v2.add(dns::make_a(DnsName::from("new.ex.com"), Ipv4Addr(198, 51, 100, 8), 300));

  const auto diff = diff_zones(v1, v2);
  EXPECT_EQ(diff.from_serial, 10u);
  EXPECT_EQ(diff.to_serial, 11u);
  ASSERT_EQ(diff.deletions.size(), 1u);
  EXPECT_EQ(diff.deletions[0].name.to_string(), "www.ex.com.");
  EXPECT_EQ(diff.additions.size(), 2u);
}

TEST(Ixfr, DiffOfIdenticalContentIsEmpty) {
  const auto diff = diff_zones(sample_zone(10), sample_zone(11));
  EXPECT_TRUE(diff.empty());
}

TEST(Ixfr, ApplyDiffReproducesTarget) {
  const Zone v1 = sample_zone(10);
  Zone v2 = sample_zone(11);
  v2.remove(DnsName::from("ftp.ex.com"), RecordType::CNAME);
  v2.add(dns::make_cname(DnsName::from("ftp.ex.com"), DnsName::from("files.ex.com"), 60));
  v2.add(dns::make_a(DnsName::from("files.ex.com"), Ipv4Addr(10, 1, 1, 1), 60));

  const auto diff = diff_zones(v1, v2);
  const auto applied = apply_diff(v1, diff);
  ASSERT_TRUE(applied) << applied.error();
  EXPECT_EQ(applied.value().serial(), 11u);
  EXPECT_EQ(applied.value().all_records(), v2.all_records());
}

TEST(Ixfr, ApplyRejectsSerialMismatch) {
  const Zone v1 = sample_zone(10);
  const Zone v3 = sample_zone(12);
  Zone v2 = sample_zone(11);
  v2.add(dns::make_a(DnsName::from("x.ex.com"), Ipv4Addr(1, 1, 1, 1), 60));
  const auto diff = diff_zones(v2, v3);  // diff 11 -> 12
  const auto applied = apply_diff(v1, diff);  // base is 10
  ASSERT_FALSE(applied);
  EXPECT_NE(applied.error().find("fall back to AXFR"), std::string::npos);
}

TEST(Ixfr, ApplyRejectsPhantomDeletion) {
  const Zone v1 = sample_zone(10);
  ZoneDiff diff;
  diff.apex = DnsName::from("ex.com");
  diff.from_serial = 10;
  diff.to_serial = 11;
  diff.deletions.push_back(
      dns::make_a(DnsName::from("ghost.ex.com"), Ipv4Addr(9, 9, 9, 9), 60));
  const auto applied = apply_diff(v1, diff);
  ASSERT_FALSE(applied);
  EXPECT_NE(applied.error().find("fall back to AXFR"), std::string::npos);
}

TEST(Ixfr, MessageRoundTrip) {
  const Zone v1 = sample_zone(10);
  Zone v2 = sample_zone(11);
  v2.add(dns::make_a(DnsName::from("extra.ex.com"), Ipv4Addr(10, 2, 2, 2), 60));
  const auto diff = diff_zones(v1, v2);

  const auto message = ixfr_serialize_chain(std::span(&diff, 1), 1234);
  // Through the wire, as a real IXFR would travel.
  const auto decoded = dns::decode(dns::encode(message));
  ASSERT_TRUE(decoded) << decoded.error();
  const auto parsed = ixfr_parse_chain(decoded.value());
  ASSERT_TRUE(parsed) << parsed.error();
  ASSERT_EQ(parsed.value().size(), 1u);
  const ZoneDiff& delta = parsed.value().front();
  EXPECT_EQ(delta.from_serial, diff.from_serial);
  EXPECT_EQ(delta.to_serial, diff.to_serial);
  EXPECT_EQ(delta.deletions, diff.deletions);
  EXPECT_EQ(delta.additions, diff.additions);

  // The parsed diff applies cleanly.
  const auto applied = apply_diff(v1, delta);
  ASSERT_TRUE(applied) << applied.error();
  EXPECT_EQ(applied.value().all_records(), v2.all_records());
}

TEST(Ixfr, ParseRejectsMalformedBodies) {
  const Zone v1 = sample_zone(10);
  Zone v2 = sample_zone(11);
  v2.add(dns::make_a(DnsName::from("extra.ex.com"), Ipv4Addr(10, 2, 2, 2), 60));
  const ZoneDiff diff = diff_zones(v1, v2);
  auto message = ixfr_serialize_chain(std::span(&diff, 1), 1);

  auto too_short = message;
  too_short.answers.resize(2);
  EXPECT_FALSE(ixfr_parse_chain(too_short));

  auto bad_close = message;
  bad_close.answers.pop_back();
  EXPECT_FALSE(ixfr_parse_chain(bad_close));
}

TEST(Ixfr, DiffValidationThrows) {
  const Zone a = sample_zone(10);
  const Zone b = ZoneBuilder("other.com", 11)
                     .ns("@", "ns1.other.com")
                     .a("ns1", "10.0.0.1")
                     .build();
  EXPECT_THROW(diff_zones(a, b), std::invalid_argument);           // different apex
  EXPECT_THROW(diff_zones(sample_zone(10), sample_zone(10)), std::invalid_argument);
}

TEST(Ixfr, ChainedDiffsTrackHistory) {
  // v10 -> v11 -> v12 applied in sequence equals a fresh v12.
  const Zone v10 = sample_zone(10);
  Zone v11 = sample_zone(11);
  v11.add(dns::make_a(DnsName::from("a.ex.com"), Ipv4Addr(1, 0, 0, 1), 60));
  Zone v12 = sample_zone(12);
  v12.add(dns::make_a(DnsName::from("a.ex.com"), Ipv4Addr(1, 0, 0, 1), 60));
  v12.add(dns::make_a(DnsName::from("b.ex.com"), Ipv4Addr(1, 0, 0, 2), 60));

  const auto step1 = apply_diff(v10, diff_zones(v10, v11));
  ASSERT_TRUE(step1) << step1.error();
  const auto step2 = apply_diff(step1.value(), diff_zones(v11, v12));
  ASSERT_TRUE(step2) << step2.error();
  EXPECT_EQ(step2.value().all_records(), v12.all_records());
}

}  // namespace
}  // namespace akadns::zone

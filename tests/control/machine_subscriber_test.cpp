#include "control/machine_subscriber.hpp"

#include <gtest/gtest.h>

#include "zone/zone_builder.hpp"

namespace akadns::control {
namespace {

using dns::DnsName;
using dns::RecordType;

zone::Zone example_zone(std::uint32_t serial, const char* www_address) {
  return zone::ZoneBuilder("example.com", serial)
      .soa("ns1.example.com", "admin.example.com", serial)
      .ns("@", "ns1.example.com")
      .a("ns1", "10.0.0.1")
      .a("www", www_address)
      .build();
}

TEST(MachineSubscriber, ZoneSnapshotLandsInLocalStore) {
  EventScheduler sched;
  ControlPlane plane(sched, 1);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Machine machine({.id = "m1"});
  subscribe_machine_to_zone(plane, machine, DnsName::from("example.com"));
  publish_zone(plane, publisher, example_zone(1, "10.0.0.2"));
  sched.run();
  ASSERT_TRUE(machine.local_store()->has_zone(DnsName::from("example.com")));
  const auto result = machine.nameserver().responder().respond(
      dns::make_query(1, DnsName::from("www.example.com"), RecordType::A),
      Endpoint{*IpAddr::parse("127.0.0.1"), 1});
  EXPECT_EQ(result.header.rcode, dns::Rcode::NoError);
}

TEST(MachineSubscriber, UpdateReplacesZoneVersion) {
  EventScheduler sched;
  ControlPlane plane(sched, 2);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Machine machine({.id = "m1"});
  subscribe_machine_to_zone(plane, machine, DnsName::from("example.com"));
  publish_zone(plane, publisher, example_zone(1, "10.0.0.2"));
  sched.run();
  publish_zone(plane, publisher, example_zone(2, "10.0.0.99"));
  sched.run();
  const auto zone = machine.local_store()->find_zone(DnsName::from("example.com"));
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->serial(), 2u);
  const auto* set = zone->find(DnsName::from("www.example.com"), RecordType::A);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(std::get<dns::ARecord>(set->records[0].rdata).address.to_string(), "10.0.0.99");
  // The replica holds the publisher's own snapshot, not a copy.
  EXPECT_EQ(machine.local_store()->find_compiled(DnsName::from("example.com")).get(),
            publisher.snapshot(DnsName::from("example.com")).get());
}

TEST(MachineSubscriber, DeliveryRefreshesMetadataTimestamp) {
  EventScheduler sched;
  ControlPlane plane(sched, 3);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Machine machine({.id = "m1"});
  subscribe_machine_to_zone(plane, machine, DnsName::from("example.com"));
  const auto before = machine.nameserver().last_metadata_update();
  publish_zone(plane, publisher, example_zone(1, "10.0.0.2"));
  sched.run();
  EXPECT_GT(machine.nameserver().last_metadata_update(), before);
}

TEST(MachineSubscriber, PartialConnectivityCausesStalenessThenCatchUp) {
  EventScheduler sched;
  ControlPlane plane(sched, 4);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Machine machine({.id = "m1",
                        .nameserver = {.staleness_threshold = Duration::seconds(30)}});
  subscribe_machine_to_zone(plane, machine, DnsName::from("example.com"));
  publish_zone(plane, publisher, example_zone(1, "10.0.0.2"));
  sched.run();

  // Transit links fail: metadata cut off, staleness builds (§4.2.2).
  machine.inject_failure(pop::FailureType::PartialConnectivity);
  publish_zone(plane, publisher, example_zone(2, "10.0.0.3"));
  sched.run_until(sched.now() + Duration::minutes(2));
  EXPECT_EQ(machine.local_store()->find_zone(DnsName::from("example.com"))->serial(), 1u);
  EXPECT_TRUE(machine.nameserver().is_stale(sched.now()));

  // Links restored: retry loop catches the machine up, refreshing the
  // metadata timestamp at delivery time (fresh *at that instant*; with
  // no further publications it would age out again, which is why
  // production keeps a continuous mapping-update heartbeat).
  machine.clear_failure();
  const auto recovery_started = sched.now();
  sched.run_until(sched.now() + Duration::minutes(1));
  EXPECT_EQ(machine.local_store()->find_zone(DnsName::from("example.com"))->serial(), 2u);
  EXPECT_GT(machine.nameserver().last_metadata_update(), recovery_started);
}

TEST(MachineSubscriber, InputDelayedMachineLagsByAnHour) {
  EventScheduler sched;
  ControlPlane plane(sched, 5);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Machine regular({.id = "regular"});
  pop::Machine delayed({.id = "delayed", .input_delayed = true});
  subscribe_machine_to_zone(plane, regular, DnsName::from("example.com"));
  subscribe_machine_to_zone(plane, delayed, DnsName::from("example.com"),
                            Duration::hours(1));
  publish_zone(plane, publisher, example_zone(1, "10.0.0.2"));
  sched.run_until(SimTime::from_seconds(60));
  EXPECT_TRUE(regular.local_store()->has_zone(DnsName::from("example.com")));
  EXPECT_FALSE(delayed.local_store()->has_zone(DnsName::from("example.com")));
  sched.run_until(SimTime::from_seconds(3700));
  EXPECT_TRUE(delayed.local_store()->has_zone(DnsName::from("example.com")));
}

TEST(MachineSubscriber, InvalidZoneRejectedAtPublish) {
  EventScheduler sched;
  ControlPlane plane(sched, 6);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  // No NS at apex -> Management Portal validation rejects.
  zone::Zone bad(DnsName::from("bad.com"), 1);
  bad.add(dns::make_soa(DnsName::from("bad.com"), DnsName::from("ns.bad.com"),
                        DnsName::from("admin.bad.com"), 1, 3600));
  EXPECT_THROW(publish_zone(plane, publisher, std::move(bad)), std::invalid_argument);
}

TEST(MachineSubscriber, SharedStoreMachineRejected) {
  EventScheduler sched;
  ControlPlane plane(sched, 7);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  zone::ZoneStore shared;
  pop::Machine machine({.id = "shared"}, shared);
  EXPECT_THROW(
      subscribe_machine_to_zone(plane, machine, DnsName::from("example.com")),
      std::invalid_argument);
}

TEST(MachineSubscriber, MappingSubscriptionRefreshesTimestamp) {
  EventScheduler sched;
  ControlPlane plane(sched, 8);
  SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Machine machine({.id = "m1"});
  subscribe_machine_to_mapping(plane, machine);
  const auto before = machine.nameserver().last_metadata_update();
  plane.publish(kMappingTopic, std::make_shared<const Metadata>());
  sched.run();
  EXPECT_GT(machine.nameserver().last_metadata_update(), before);
}

}  // namespace
}  // namespace akadns::control

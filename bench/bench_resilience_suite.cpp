// Failure-resilience scenarios of §4.2, end to end on the platform:
//   A) machine-level failures -> self-suspension -> traffic shifts
//      (§4.2.1), bounded by the suspension quota;
//   B) stale state from partial connectivity -> suspension -> catch-up
//      (§4.2.2);
//   C) input-induced widespread crash -> input-delayed nameservers keep
//      answering with intentionally stale data (§4.2.3);
//   D) query-of-death -> firewall rule -> crash rate limited to 1/T_QoD
//      (§4.2.4).

#include "bench_util.hpp"
#include "dns/wire.hpp"
#include "control/machine_subscriber.hpp"
#include "pop/monitoring_agent.hpp"
#include "pop/pop.hpp"
#include "zone/zone_builder.hpp"

using namespace akadns;

namespace {

zone::Zone example_zone(std::uint32_t serial = 1) {
  return zone::ZoneBuilder("ex.com", serial)
      .soa("ns1.ex.com", "hostmaster.ex.com", serial)
      .ns("@", "ns1.ex.com")
      .a("ns1", "10.0.0.1")
      .a("www", "93.184.216.34")
      .build();
}

void scenario_a_machine_failures() {
  bench::subheading("A) machine failures -> self-suspension under quota (§4.2.1)");
  EventScheduler sched;
  zone::ZoneStore store;
  store.publish(example_zone());
  pop::SuspensionCoordinator coordinator({.max_suspended_fraction = 0.25, .min_allowed = 1});
  std::vector<std::unique_ptr<pop::Machine>> machines;
  std::vector<std::unique_ptr<pop::MonitoringAgent>> agents;
  constexpr std::size_t kFleet = 12;
  for (std::size_t i = 0; i < kFleet; ++i) {
    machines.push_back(std::make_unique<pop::Machine>(
        pop::MachineConfig{.id = "m" + std::to_string(i)}, store));
    machines.back()->nameserver().metadata_updated(sched.now());
    machines.back()->speaker().advertise(1);
    agents.push_back(std::make_unique<pop::MonitoringAgent>(*machines.back(), store,
                                                            coordinator, sched));
  }
  // Three isolated hardware failures: all suspended (quota 3).
  machines[0]->inject_failure(pop::FailureType::Disk);
  machines[1]->inject_failure(pop::FailureType::Memory);
  machines[2]->inject_failure(pop::FailureType::Nic);
  for (auto& agent : agents) agent->check_now();
  std::size_t suspended = 0, advertising = 0;
  for (auto& m : machines) {
    if (m->nameserver().state() == server::ServerState::SelfSuspended) ++suspended;
    if (m->speaker().advertising(1)) ++advertising;
  }
  bench::print_row("isolated failures suspended", static_cast<double>(suspended), "/ 3");
  bench::print_row("machines still advertising", static_cast<double>(advertising), "");

  // Widespread failure (bad release): quota caps the damage.
  for (auto& m : machines) m->inject_failure(pop::FailureType::SoftwareBug);
  for (auto& agent : agents) agent->check_now();
  suspended = advertising = 0;
  for (auto& m : machines) {
    if (m->nameserver().state() == server::ServerState::SelfSuspended) ++suspended;
    if (m->speaker().advertising(1)) ++advertising;
  }
  bench::print_row("widespread failure: suspended (quota = 3)",
                   static_cast<double>(suspended), "/ 12");
  bench::print_row("degraded-but-serving machines", static_cast<double>(advertising), "");

  // Recovery: failures cleared, everyone back.
  for (auto& m : machines) m->clear_failure();
  for (int round = 0; round < 6; ++round) {
    for (auto& agent : agents) agent->check_now();
  }
  advertising = 0;
  for (auto& m : machines) {
    if (m->speaker().advertising(1)) ++advertising;
  }
  bench::print_row("after recovery: advertising", static_cast<double>(advertising),
                   "/ 12");
}

void scenario_b_stale_state() {
  bench::subheading("B) partial connectivity -> stale -> suspend -> catch up (§4.2.2)");
  EventScheduler sched;
  control::ControlPlane plane(sched, 5);
  control::SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Machine machine(
      {.id = "edge", .nameserver = {.staleness_threshold = Duration::seconds(30)}});
  control::subscribe_machine_to_zone(plane, machine, dns::DnsName::from("ex.com"));
  control::subscribe_machine_to_mapping(plane, machine);
  pop::SuspensionCoordinator coordinator;
  pop::MonitoringAgent agent(machine, *machine.local_store(), coordinator, sched);
  machine.speaker().advertise(1);
  control::publish_zone(plane, publisher, example_zone(1));
  sched.run();
  agent.check_now();
  bench::print_row("healthy and serving", machine.nameserver().running() ? 1 : 0, "(1=yes)");

  machine.inject_failure(pop::FailureType::PartialConnectivity);
  control::publish_zone(plane, publisher, example_zone(2));
  sched.run_until(sched.now() + Duration::minutes(2));
  agent.check_now();
  bench::print_row("stale after transit-link failure; suspended",
                   machine.nameserver().state() == server::ServerState::SelfSuspended ? 1
                                                                                      : 0,
                   "(1=yes)");
  bench::print_row("zone serial while partitioned",
                   static_cast<double>(
                       machine.local_store()->find_zone(dns::DnsName::from("ex.com"))
                           ->serial()),
                   "(published: 2)");
  machine.clear_failure();
  sched.run_until(sched.now() + Duration::seconds(30));
  agent.check_now();
  bench::print_row("zone serial after catch-up",
                   static_cast<double>(
                       machine.local_store()->find_zone(dns::DnsName::from("ex.com"))
                           ->serial()),
                   "");
  bench::print_row("resumed serving", machine.nameserver().running() ? 1 : 0, "(1=yes)");
}

void scenario_c_input_delayed() {
  bench::subheading("C) poisoned input -> input-delayed nameservers absorb (§4.2.3)");
  EventScheduler sched;
  netsim::Network net(sched, {}, 7);
  const auto router = net.add_node("router");
  const auto upstream = net.add_node("upstream");
  net.add_link(upstream, router, Duration::millis(5), netsim::LinkKind::ProviderToCustomer);
  control::ControlPlane plane(sched, 8);
  control::SchedulerClock clock(sched);
  propagation::ZonePublisher publisher(clock);
  pop::Pop site({.id = "p", .router_node = router}, net);
  auto& regular1 = site.adopt_machine(std::make_unique<pop::Machine>(
      pop::MachineConfig{.id = "regular-1"}));
  auto& regular2 = site.adopt_machine(std::make_unique<pop::Machine>(
      pop::MachineConfig{.id = "regular-2"}));
  auto& delayed = site.adopt_machine(std::make_unique<pop::Machine>(
      pop::MachineConfig{.id = "input-delayed", .input_delayed = true}));
  for (auto* machine : site.machines()) {
    control::subscribe_machine_to_zone(
        plane, *machine, dns::DnsName::from("ex.com"),
        machine->input_delayed() ? Duration::hours(1) : Duration::zero());
  }
  regular1.speaker().advertise(1, pop::BgpSpeaker::kDefaultMed);
  regular2.speaker().advertise(1, pop::BgpSpeaker::kDefaultMed);
  delayed.speaker().advertise(1, pop::BgpSpeaker::kInputDelayedMed);

  control::publish_zone(plane, publisher, example_zone(1));
  sched.run_until(sched.now() + Duration::hours(2));  // delayed copy has v1 too
  bench::print_row("ECMP set size (regulars only, MED)",
                   static_cast<double>(site.ecmp_set(1).size()), "");

  // A poisoned v2 crashes every regular nameserver on receipt.
  control::publish_zone(plane, publisher, example_zone(2));
  sched.run_until(sched.now() + Duration::seconds(30));
  for (auto* machine : {&regular1, &regular2}) {
    if (machine->local_store()->find_zone(dns::DnsName::from("ex.com"))->serial() == 2) {
      machine->nameserver().set_crash_predicate([](const dns::Question&) { return true; });
      // First query crashes it; the agent withdraws. Here we shortcut:
      const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
      machine->deliver(dns::encode(dns::make_query(
                           1, dns::DnsName::from("www.ex.com"), dns::RecordType::A)),
                       src, 57, sched.now());
      machine->pump(sched.now());
      machine->speaker().withdraw_all();
    }
  }
  bench::print_row("regular machines crashed",
                   (regular1.nameserver().state() == server::ServerState::Crashed ? 1 : 0) +
                       (regular2.nameserver().state() == server::ServerState::Crashed ? 1
                                                                                      : 0),
                   "/ 2");
  const auto eligible = site.ecmp_set(1);
  bench::print_row("PoP still advertising", site.advertising(1) ? 1 : 0, "(1=yes)");
  std::printf("  now serving: %s (zone serial %u — intentionally stale v1)\n",
              eligible.empty() ? "nobody" : eligible[0]->id().c_str(),
              eligible.empty()
                  ? 0u
                  : eligible[0]->local_store()->find_zone(dns::DnsName::from("ex.com"))
                        ->serial());
  // Answer check through the delayed machine.
  if (!eligible.empty()) {
    std::vector<std::uint8_t> response;
    eligible[0]->nameserver().set_response_span_sink(
        [&](const Endpoint&, std::span<const std::uint8_t> wire) {
          response.assign(wire.begin(), wire.end());
        });
    const Endpoint src{*IpAddr::parse("198.51.100.2"), 5353};
    eligible[0]->deliver(dns::encode(dns::make_query(
                             2, dns::DnsName::from("www.ex.com"), dns::RecordType::A)),
                         src, 57, sched.now());
    eligible[0]->pump(sched.now());
    bench::print_row("input-delayed machine answered", response.empty() ? 0 : 1, "(1=yes)");
  }
}

void scenario_d_query_of_death() {
  bench::subheading("D) query-of-death -> firewall rule -> crash rate <= 1/T_QoD (§4.2.4)");
  EventScheduler sched;
  zone::ZoneStore store;
  store.publish(example_zone());
  server::NameserverConfig config;
  config.qod_trap_enabled = true;
  config.qod_rule_ttl = Duration::minutes(10);
  server::Nameserver nameserver(std::move(config), store);
  nameserver.set_crash_predicate([](const dns::Question& q) {
    return q.name == dns::DnsName::from("death.ex.com");
  });
  const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
  int crashes = 0;
  std::uint64_t answered_other = 0;
  SimTime clock = SimTime::origin();
  nameserver.set_response_span_sink(
      [&](const Endpoint&, std::span<const std::uint8_t>) { ++answered_other; });
  // The QoD arrives every 30 seconds for one hour; normal queries continue.
  for (int tick = 0; tick < 120; ++tick) {
    clock += Duration::seconds(30);
    nameserver.receive(dns::encode(dns::make_query(static_cast<std::uint16_t>(tick),
                                                   dns::DnsName::from("death.ex.com"),
                                                   dns::RecordType::A)),
                       src, 57, clock);
    nameserver.receive(dns::encode(dns::make_query(static_cast<std::uint16_t>(tick + 500),
                                                   dns::DnsName::from("www.ex.com"),
                                                   dns::RecordType::A)),
                       src, 57, clock);
    nameserver.process(clock);
    if (nameserver.state() == server::ServerState::Crashed) {
      ++crashes;
      nameserver.restart(clock);  // monitoring agent
    }
  }
  bench::print_row("QoD arrivals over the hour", 120, "");
  bench::print_row("crashes (T_QoD = 10 min => <= ~6)", crashes, "");
  bench::print_row("dropped by firewall rule",
                   static_cast<double>(
                       nameserver.defense().lane_stats(0).drops[DropReason::Firewall]),
                   "");
  bench::print_row("dissimilar queries answered", static_cast<double>(answered_other), "");
}

}  // namespace

int main() {
  bench::heading("failure-resilience suite",
                 "§4.2 — suspension quota, stale-state recovery, input-delayed "
                 "nameservers, query-of-death trap");
  scenario_a_machine_failures();
  scenario_b_stale_state();
  scenario_c_input_delayed();
  scenario_d_query_of_death();
  return 0;
}

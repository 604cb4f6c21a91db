// §4.3.4 attack taxonomy: every attack class from the paper against the
// full query-scoring pipeline (rate-limit + allowlist + NXDOMAIN +
// hop-count + loyalty), with filters pre-trained on historical traffic
// exactly as production filters are. For each class, reports legitimate
// goodput with and without the pipeline and which filters fired.
//
// Expected shape (the paper's narrative):
//   direct query      -> rate limit + allowlist stop it
//   random subdomain  -> only the NXDOMAIN filter stops it (pass-through)
//   spoofed source    -> hop-count filter stops it
//   spoofed source+TTL-> only the loyalty filter stops it

#include <functional>

#include "bench_util.hpp"
#include "dns/wire.hpp"
#include "filters/allowlist_filter.hpp"
#include "filters/hopcount_filter.hpp"
#include "filters/loyalty_filter.hpp"
#include "filters/nxdomain_filter.hpp"
#include "filters/rate_limit_filter.hpp"
#include "server/nameserver.hpp"
#include "workload/attacks.hpp"

using namespace akadns;

namespace {

constexpr double kComputeQps = 5'000.0;
constexpr double kLegitQps = 1'500.0;
constexpr double kAttackQps = 15'000.0;

struct Scenario {
  workload::ResolverPopulation population{{.resolver_count = 8'000, .asn_count = 400}, 1};
  workload::HostedZones zones{{.zone_count = 200, .wildcard_fraction = 0.0}, 2};

  /// Anycast routes ~30% of resolvers to this nameserver's PoP; the
  /// loyalty filter knows exactly that subset (§4.3.4 class 5: the
  /// attacker cannot choose which PoP its packets are routed to, so
  /// most impersonations land at a PoP the victim never uses).
  bool in_catchment(std::size_t resolver_index) const {
    return resolver_index % 10 < 3;
  }
};

server::Nameserver make_nameserver(Scenario& scenario, bool with_filters) {
  server::NameserverConfig config;
  config.compute_capacity_qps = kComputeQps;
  config.io_capacity_qps = 200'000.0;
  config.queue_config.max_scores = {0.0, 60.0, 150.0};
  config.queue_config.discard_score = 200.0;
  server::Nameserver nameserver(std::move(config), scenario.zones.store());
  if (!with_filters) return nameserver;

  // Rate limit: trained from each resolver's historical rate.
  auto rate_limit = std::make_unique<filters::RateLimitFilter>(
      filters::RateLimitFilter::Config{.penalty = 60.0,
                                       .headroom = 5.0,
                                       .min_limit_qps = 5.0,
                                       .default_limit_qps = 20.0});
  const auto t0 = SimTime::origin();
  {
    Rng rng(9);
    // 10 minutes of synthetic history at each resolver's typical rate.
    for (const auto& resolver : scenario.population.resolvers()) {
      const double qps = resolver.weight * kLegitQps;
      const auto events = static_cast<std::uint64_t>(qps * 600.0);
      for (std::uint64_t e = 0; e < std::min<std::uint64_t>(events, 4000); ++e) {
        rate_limit->learn(resolver.address,
                          t0 + Duration::seconds_f(rng.next_double() * 600.0));
      }
    }
    rate_limit->finalize_learning(t0 + Duration::minutes(10));
  }

  // Allowlist of historical top talkers, armed for the exercise.
  auto allowlist = std::make_unique<filters::AllowlistFilter>(
      filters::AllowlistFilter::Config{.penalty = 50.0, .auto_activate = false});
  for (const auto idx : scenario.population.top_by_weight(0.10)) {
    allowlist->allow(scenario.population.resolver(idx).address);
  }
  allowlist->set_active(true);

  // Hop-count filter trained on each source's genuine IP TTL.
  auto hopcount = std::make_unique<filters::HopCountFilter>(
      filters::HopCountFilter::Config{.penalty = 50.0, .tolerance = 1});
  for (const auto& resolver : scenario.population.resolvers()) {
    for (int k = 0; k < 4; ++k) hopcount->learn(resolver.address, resolver.ip_ttl);
  }

  // Loyalty: trained only on the resolvers anycast routes to this PoP.
  auto loyalty = std::make_unique<filters::LoyaltyFilter>(
      filters::LoyaltyFilter::Config{.penalty = 80.0});
  for (std::size_t i = 0; i < scenario.population.size(); ++i) {
    if (scenario.in_catchment(i)) {
      loyalty->learn(scenario.population.resolver(i).address, t0);
    }
  }

  auto nxdomain = std::make_unique<filters::NxDomainFilter>(
      filters::NxDomainFilter::Config{.penalty = 100.0, .nxdomain_threshold = 200},
      [&scenario](const dns::DnsName& qname) -> std::optional<dns::DnsName> {
        const auto zone = scenario.zones.store().find_best_zone(qname);
        if (!zone) return std::nullopt;
        return zone->apex();
      },
      [&scenario](const dns::DnsName& apex) {
        const auto zone = scenario.zones.store().find_zone(apex);
        return zone ? zone->all_names() : std::vector<dns::DnsName>{};
      });

  nameserver.scoring().add_filter(std::move(rate_limit));
  nameserver.scoring().add_filter(std::move(allowlist));
  nameserver.scoring().add_filter(std::move(nxdomain));
  nameserver.scoring().add_filter(std::move(hopcount));
  nameserver.scoring().add_filter(std::move(loyalty));
  return nameserver;
}

using AttackFn = std::function<workload::GeneratedQuery()>;

double run(Scenario& scenario, server::Nameserver& nameserver, AttackFn attack,
           double seconds) {
  workload::QueryGenerator legit_source(scenario.population, scenario.zones, 33);
  // Legitimate traffic at this PoP comes from its catchment only.
  auto legit = [&] {
    for (;;) {
      auto q = legit_source.next();
      if (scenario.in_catchment(q.resolver_index)) return q;
    }
  };
  Rng rng(34);
  std::uint64_t legit_sent = 0, legit_answered = 0;
  std::uint16_t id = 1;
  std::vector<bool> is_legit(65536, false);
  nameserver.set_response_span_sink([&](const Endpoint&, std::span<const std::uint8_t> wire) {
    if (wire.size() >= 2 &&
        is_legit[static_cast<std::uint16_t>((wire[0] << 8) | wire[1])]) {
      ++legit_answered;
    }
  });
  SimTime clock = SimTime::origin() + Duration::days(1);  // loyalty ripened
  for (double t = 0; t < seconds; t += 1e-3) {
    clock += Duration::millis(1);
    const auto legit_count = rng.next_poisson(kLegitQps * 1e-3);
    const auto attack_count = rng.next_poisson(kAttackQps * 1e-3);
    std::vector<bool> arrivals;
    arrivals.insert(arrivals.end(), legit_count, true);
    arrivals.insert(arrivals.end(), attack_count, false);
    rng.shuffle(arrivals);
    for (const bool legit_arrival : arrivals) {
      const auto q = legit_arrival ? legit() : attack();
      is_legit[id] = legit_arrival;
      if (legit_arrival) ++legit_sent;
      nameserver.receive(dns::encode(dns::make_query(id, q.qname, q.qtype)), q.source,
                         q.ip_ttl, clock);
      ++id;
    }
    nameserver.process(clock);
  }
  return legit_sent == 0 ? 1.0
                         : static_cast<double>(legit_answered) /
                               static_cast<double>(legit_sent);
}

}  // namespace

int main() {
  bench::heading("attack taxonomy vs the filter pipeline",
                 "§4.3.4 — each class is stopped by the filter designed for it");

  Scenario scenario;
  std::printf("compute %.0f qps; legit %.0f qps; every attack %.0f qps (3x capacity)\n",
              kComputeQps, kLegitQps, kAttackQps);

  struct Case {
    const char* name;
    AttackFn make;
  };
  workload::DirectQueryAttack direct({.bot_count = 20, .target_zone_rank = 0},
                                     scenario.zones, 51);
  workload::RandomSubdomainAttack random_sub({.target_zone_rank = 0}, scenario.population,
                                             scenario.zones, 52);
  workload::SpoofedAttack spoofed_ip(
      {.impersonate_allowlisted = true, .forge_ttl = false}, scenario.population,
      scenario.zones, 53);
  workload::SpoofedAttack spoofed_ip_ttl(
      {.impersonate_allowlisted = true, .forge_ttl = true}, scenario.population,
      scenario.zones, 54);

  const std::vector<Case> cases{
      {"2) direct query (20 bots)", [&] { return direct.next(); }},
      {"3) random subdomain (pass-through)", [&] { return random_sub.next(); }},
      {"4) spoofed source IP", [&] { return spoofed_ip.next(); }},
      {"5) spoofed source IP + IP TTL", [&] { return spoofed_ip_ttl.next(); }},
  };

  std::printf("\n%-38s %14s %14s\n", "attack class", "w/o filters", "w/ filters");
  for (const auto& attack_case : cases) {
    auto baseline = make_nameserver(scenario, false);
    const double without = run(scenario, baseline, attack_case.make, 2.0);
    auto protected_ns = make_nameserver(scenario, true);
    const double with = run(scenario, protected_ns, attack_case.make, 2.0);
    std::printf("%-38s %13.1f%% %13.1f%%\n", attack_case.name, 100 * without, 100 * with);
    // Which filters fired?
    std::printf("%40s", "filters fired: ");
    for (const char* name : {"rate_limit", "allowlist", "nxdomain", "hopcount", "loyalty"}) {
      auto* filter = protected_ns.scoring().find(name);
      std::uint64_t fired = 0;
      if (name == std::string("rate_limit")) {
        fired = dynamic_cast<filters::RateLimitFilter*>(filter)->total_penalized();
      } else if (name == std::string("allowlist")) {
        fired = dynamic_cast<filters::AllowlistFilter*>(filter)->total_penalized();
      } else if (name == std::string("nxdomain")) {
        fired = dynamic_cast<filters::NxDomainFilter*>(filter)->total_penalized();
      } else if (name == std::string("hopcount")) {
        fired = dynamic_cast<filters::HopCountFilter*>(filter)->total_penalized();
      } else {
        fired = dynamic_cast<filters::LoyaltyFilter*>(filter)->total_penalized();
      }
      if (fired > 1000) std::printf("%s(%sk) ", name, fmt(fired / 1000.0, 0).c_str());
    }
    std::printf("\n");
  }
  std::printf("\nnote: class 1 (volumetric) never reaches the application — it is\n"
              "absorbed by overprovisioned links and firewall rules (§4.3.2/§4.3.4),\n"
              "exercised in bench_fig9_decision_tree.\n");
  return 0;
}

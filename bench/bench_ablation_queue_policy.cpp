// Ablation of the §4.3.3 queueing design: score-then-prioritize with
// work-conserving drain, versus (a) a single FIFO with no scoring and
// (b) hard-drop of every penalized query (not work-conserving).
//
// The filters are deliberately made imperfect: a fixed 5% of legitimate
// resolvers are misclassified (their queries carry a penalty). Under a
// random-subdomain attack we measure, per policy:
//   - goodput for correctly classified legitimate queries,
//   - goodput for the misclassified (false-positive) legitimate queries,
//   - attack queries answered (wasted compute).
//
// The paper's design wins on both fronts: clean traffic is protected
// (like hard-drop) while false positives still get answered whenever
// capacity remains (unlike hard-drop) — "our query processing is
// work-conserving, so if there are any enqueued queries, it will attempt
// to answer them, even if suspicious."

#include "bench_util.hpp"
#include "dns/wire.hpp"
#include "filters/nxdomain_filter.hpp"
#include "server/nameserver.hpp"
#include "workload/attacks.hpp"

using namespace akadns;

namespace {

constexpr double kComputeQps = 5'000.0;
constexpr double kLegitQps = 1'500.0;
constexpr double kAttackQps = 12'000.0;

struct Scenario {
  workload::ResolverPopulation population{{.resolver_count = 6'000, .asn_count = 300}, 1};
  workload::HostedZones zones{{.zone_count = 150, .wildcard_fraction = 0.0}, 2};

  bool misclassified(std::size_t resolver_index) const {
    return resolver_index % 20 == 0;  // 5% false-positive band
  }
};

enum class Policy { PriorityQueues, PlainFifo, HardDrop };

const char* name_of(Policy p) {
  switch (p) {
    case Policy::PriorityQueues: return "priority queues (paper)";
    case Policy::PlainFifo: return "single FIFO, no scoring";
    case Policy::HardDrop: return "hard-drop penalized";
  }
  return "?";
}

/// Filter marking misclassified-legit and (via NXDOMAIN filter logic)
/// attack queries.
class MisclassifyFilter : public filters::Filter {
 public:
  MisclassifyFilter(const Scenario& scenario, double penalty)
      : scenario_(scenario), penalty_(penalty) {}
  std::string_view name() const noexcept override { return "misclassify"; }
  double score(const filters::QueryContext& ctx) override {
    // Identify the resolver by address (addresses are index-derived).
    const auto octets_hash = ctx.source.addr.hash();
    (void)octets_hash;
    for (std::size_t base = 0; base < 1; ++base) {
      // addresses were allocated as 0x0B000000 + index
      if (ctx.source.addr.is_v4()) {
        const std::uint32_t v = ctx.source.addr.v4().value();
        if (v >= 0x0B000000u) {
          const std::size_t index = v - 0x0B000000u;
          if (index < scenario_.population.size() && scenario_.misclassified(index)) {
            return penalty_;
          }
        }
      }
    }
    return 0.0;
  }

 private:
  const Scenario& scenario_;
  double penalty_;
};

struct Outcome {
  double clean_goodput = 0;
  double misclassified_goodput = 0;
  double attack_answered = 0;
};

Outcome run_policy(Scenario& scenario, Policy policy) {
  server::NameserverConfig config;
  config.compute_capacity_qps = kComputeQps;
  config.io_capacity_qps = 200'000.0;
  switch (policy) {
    case Policy::PriorityQueues:
      config.queue_config.max_scores = {0.0, 60.0, 150.0};
      config.queue_config.discard_score = 200.0;
      break;
    case Policy::PlainFifo:
      config.queue_config.max_scores = {1e9};  // everything in one queue
      config.queue_config.discard_score = 1e12;
      break;
    case Policy::HardDrop:
      config.queue_config.max_scores = {0.0};
      config.queue_config.discard_score = 1.0;  // any penalty -> discard
      break;
  }
  server::Nameserver nameserver(std::move(config), scenario.zones.store());
  if (policy != Policy::PlainFifo) {
    nameserver.scoring().add_filter(std::make_unique<MisclassifyFilter>(scenario, 60.0));
    nameserver.scoring().add_filter(std::make_unique<filters::NxDomainFilter>(
        filters::NxDomainFilter::Config{.penalty = 100.0, .nxdomain_threshold = 200},
        [&scenario](const dns::DnsName& qname) -> std::optional<dns::DnsName> {
          const auto zone = scenario.zones.store().find_best_zone(qname);
          if (!zone) return std::nullopt;
          return zone->apex();
        },
        [&scenario](const dns::DnsName& apex) {
          const auto zone = scenario.zones.store().find_zone(apex);
          return zone ? zone->all_names() : std::vector<dns::DnsName>{};
        }));
  }

  workload::QueryGenerator legit(scenario.population, scenario.zones, 5);
  workload::RandomSubdomainAttack attack({.target_zone_rank = 0}, scenario.population,
                                         scenario.zones, 6);
  Rng rng(7);
  // kind per transaction id: 0 clean, 1 misclassified, 2 attack
  std::vector<std::uint8_t> kind(65536, 2);
  std::uint64_t sent[3] = {}, answered[3] = {};
  nameserver.set_response_span_sink([&](const Endpoint&, std::span<const std::uint8_t> wire) {
    if (wire.size() >= 2) {
      ++answered[kind[static_cast<std::uint16_t>((wire[0] << 8) | wire[1])]];
    }
  });

  SimTime clock = SimTime::origin();
  std::uint16_t id = 1;
  for (double t = 0; t < 4.0; t += 1e-3) {
    clock += Duration::millis(1);
    const auto legit_count = rng.next_poisson(kLegitQps * 1e-3);
    const auto attack_count = rng.next_poisson(kAttackQps * 1e-3);
    std::vector<bool> arrivals;
    arrivals.insert(arrivals.end(), legit_count, true);
    arrivals.insert(arrivals.end(), attack_count, false);
    rng.shuffle(arrivals);
    for (const bool legit_arrival : arrivals) {
      const auto q = legit_arrival ? legit.next() : attack.next();
      const std::uint8_t k =
          legit_arrival ? (scenario.misclassified(q.resolver_index) ? 1 : 0) : 2;
      kind[id] = k;
      ++sent[k];
      nameserver.receive(dns::encode(dns::make_query(id, q.qname, q.qtype)), q.source,
                         q.ip_ttl, clock);
      ++id;
    }
    nameserver.process(clock);
  }
  Outcome outcome;
  outcome.clean_goodput = sent[0] ? static_cast<double>(answered[0]) / sent[0] : 1.0;
  outcome.misclassified_goodput =
      sent[1] ? static_cast<double>(answered[1]) / sent[1] : 1.0;
  outcome.attack_answered = sent[2] ? static_cast<double>(answered[2]) / sent[2] : 0.0;
  return outcome;
}

}  // namespace

int main() {
  bench::heading("ablation: penalty queues vs FIFO vs hard-drop (§4.3.3)",
                 "work-conserving prioritization protects clean traffic AND answers "
                 "false positives when capacity remains");

  Scenario scenario;
  std::printf("compute %.0f qps; legit %.0f qps (5%% misclassified); "
              "random-subdomain attack %.0f qps\n\n",
              kComputeQps, kLegitQps, kAttackQps);
  std::printf("%-28s %12s %18s %16s\n", "policy", "clean legit", "misclassified legit",
              "attack answered");
  for (const Policy policy :
       {Policy::PriorityQueues, Policy::PlainFifo, Policy::HardDrop}) {
    const auto outcome = run_policy(scenario, policy);
    std::printf("%-28s %11.1f%% %17.1f%% %15.1f%%\n", name_of(policy),
                100 * outcome.clean_goodput, 100 * outcome.misclassified_goodput,
                100 * outcome.attack_answered);
  }
  std::printf("\nexpected shape: FIFO hurts everyone equally; hard-drop saves clean\n"
              "traffic but silences the misclassified 5%% entirely; the paper's\n"
              "work-conserving priority queues protect clean traffic while still\n"
              "answering misclassified queries with leftover capacity.\n");
  return 0;
}

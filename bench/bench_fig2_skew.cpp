// Figure 2: "Percent of queries for/from percent of zones, ASNs, and
// source IP addresses" — the three skew CDFs. Paper anchors: top 3% of
// IPs -> 80% of queries; top 1% of ASNs -> 83%; top 1% of zones -> 88%,
// with one zone receiving 5.5% of all queries.

#include <map>

#include "bench_util.hpp"
#include "workload/population.hpp"
#include "workload/zones.hpp"

using namespace akadns;

namespace {

void print_line(const char* label, const std::vector<double>& weights,
                const std::vector<double>& fractions) {
  std::printf("\n%s\n%12s  %10s\n", label, "top %", "% queries");
  for (const double f : fractions) {
    const double mass = mass_of_top(weights, f);
    std::printf("%11.2f%%  %9.1f%%  |%s|\n", 100 * f, 100 * mass,
                render_bar(mass, 40).c_str());
  }
}

}  // namespace

int main() {
  bench::heading("Figure 2: query skew across zones / ASNs / source IPs",
                 "§2 Figure 2 — 3% IPs->80%, 1% ASNs->83%, 1% zones->88%");

  workload::ResolverPopulation population({.resolver_count = 50'000, .asn_count = 2'000},
                                          1);
  workload::HostedZones zones({.zone_count = 20'000, .names_min = 2, .names_max = 4}, 2);

  const std::vector<double> fractions{0.0001, 0.001, 0.01, 0.03, 0.10, 0.30, 1.0};

  std::vector<double> ip_weights;
  for (const auto& r : population.resolvers()) ip_weights.push_back(r.weight);
  print_line("IPs (resolver source addresses)", ip_weights, fractions);

  std::map<std::uint32_t, double> by_asn;
  for (const auto& r : population.resolvers()) by_asn[r.asn] += r.weight;
  std::vector<double> asn_weights;
  for (const auto& [asn, w] : by_asn) asn_weights.push_back(w);
  print_line("ASNs", asn_weights, fractions);

  std::vector<double> zone_weights;
  for (std::size_t i = 0; i < zones.zone_count(); ++i) {
    zone_weights.push_back(zones.zone_mass(i));
  }
  print_line("zones (ADHS)", zone_weights, fractions);

  bench::subheading("paper anchor points vs measured");
  bench::print_row("top 3% IPs carry (paper 80%)", 100 * mass_of_top(ip_weights, 0.03), "%");
  bench::print_row("top 1% ASNs carry (paper 83%)", 100 * mass_of_top(asn_weights, 0.01),
                   "%");
  bench::print_row("top 1% zones carry (paper 88%)", 100 * mass_of_top(zone_weights, 0.01),
                   "%");
  bench::print_row("hottest zone carries (paper 5.5%)", 100 * zone_weights[0], "%");
  return 0;
}

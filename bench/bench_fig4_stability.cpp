// Figure 4: "Change in query rate of resolvers in a week" — the PDF of
// week-over-week per-resolver rate change, weighted by query volume.
// Paper anchors: 53% of weighted resolvers within ±10%; top-3% list
// overlap week-to-week 85-98% (mean 92%), month-to-month 79-98%
// (mean 88%), measured over 69 weekly lists.

#include <array>
#include <set>

#include "bench_util.hpp"
#include "workload/population.hpp"

using namespace akadns;

namespace {

double overlap_fraction(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  const std::set<std::size_t> sa(a.begin(), a.end());
  std::size_t shared = 0;
  for (const auto x : b) {
    if (sa.contains(x)) ++shared;
  }
  return static_cast<double>(shared) / static_cast<double>(b.size());
}

}  // namespace

int main() {
  bench::heading("Figure 4: week-over-week change in per-resolver query rate",
                 "§2 Figure 4 — 53% of weighted resolvers within ±10%");

  workload::ResolverPopulation population({.resolver_count = 50'000, .asn_count = 2'000},
                                          1);
  Rng rng(2);

  // One week transition for the Figure 4 histogram.
  std::vector<double> before;
  for (const auto& r : population.resolvers()) before.push_back(r.weight);
  population.advance_week(rng);

  // Equal bins over -100% .. +100% change, weighted by query volume.
  constexpr std::size_t kPdfBins = 20;
  constexpr double kPdfLo = -1.0;
  constexpr double kPdfWidth = 2.0 / kPdfBins;
  std::array<double, kPdfBins> pdf{};
  double weighted_within_10 = 0, total_weight = 0;
  for (std::size_t i = 0; i < population.size(); ++i) {
    const double change =
        (population.resolver(i).weight - before[i]) / std::max(before[i], 1e-12);
    const double clamped = std::clamp(change, -0.9999, 0.9999);
    pdf[std::min(pdf.size() - 1, static_cast<std::size_t>((clamped - kPdfLo) / kPdfWidth))] +=
        before[i];
    total_weight += before[i];
    if (std::abs(change) < 0.10) weighted_within_10 += before[i];
  }

  bench::subheading("PDF of weighted per-resolver change (paper Figure 4 shape)");
  std::printf("%16s  %8s\n", "change bucket", "pdf");
  for (std::size_t b = 0; b < pdf.size(); ++b) {
    const double lo = kPdfLo + kPdfWidth * static_cast<double>(b);
    const double fraction = pdf[b] / total_weight;
    std::printf("[%5.0f%%, %5.0f%%)  %7.3f  |%s|\n", 100 * lo, 100 * (lo + kPdfWidth),
                fraction, render_bar(fraction / 0.4, 40).c_str());
  }
  bench::print_row("weighted resolvers within +/-10% (paper 53%)",
                   100.0 * weighted_within_10 / total_weight, "%");

  // Heavy-hitter list stability over 69 weeks (the paper's methodology).
  bench::subheading("top-3% list overlap across 69 weekly lists");
  workload::ResolverPopulation longitudinal({.resolver_count = 50'000, .asn_count = 2'000},
                                            3);
  Rng weekly_rng(4);
  std::vector<std::vector<std::size_t>> weekly_tops;
  weekly_tops.push_back(longitudinal.top_by_weight(0.03));
  StreamingStats week_overlap, month_overlap;
  for (int week = 1; week < 69; ++week) {
    longitudinal.advance_week(weekly_rng);
    weekly_tops.push_back(longitudinal.top_by_weight(0.03));
    week_overlap.add(overlap_fraction(weekly_tops[week - 1], weekly_tops[week]));
    if (week >= 4) {
      month_overlap.add(overlap_fraction(weekly_tops[week - 4], weekly_tops[week]));
    }
  }
  bench::print_row("week-to-week overlap mean (paper mean 92%)", 100 * week_overlap.mean(),
                   "%");
  bench::print_row("week-to-week overlap min (paper 85%)", 100 * week_overlap.min(), "%");
  bench::print_row("week-to-week overlap max (paper 98%)", 100 * week_overlap.max(), "%");
  bench::print_row("month-to-month overlap mean (paper mean 88%)",
                   100 * month_overlap.mean(), "%");
  return 0;
}

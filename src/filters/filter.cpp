#include "filters/filter.hpp"

namespace akadns::filters {

void ScoringEngine::add_filter(std::unique_ptr<Filter> filter) {
  filters_.push_back(std::move(filter));
}

double ScoringEngine::score(const QueryContext& ctx) {
  double total = 0.0;
  for (auto& filter : filters_) total += filter->score(ctx);
  return total;
}

void ScoringEngine::observe_response(const QueryContext& ctx, dns::Rcode rcode) {
  for (auto& filter : filters_) filter->observe_response(ctx, rcode);
}

Filter* ScoringEngine::find(std::string_view name) noexcept {
  for (auto& filter : filters_) {
    if (filter->name() == name) return filter.get();
  }
  return nullptr;
}

}  // namespace akadns::filters

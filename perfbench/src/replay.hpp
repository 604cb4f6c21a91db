// The traced in-process replay: one worker's share of a workload's exact
// query stream, pushed through the same public calls a net::Server
// worker makes (decode_query_view → DefenseEngine score/enqueue/next →
// Responder::respond_view_into), each call wrapped in a span.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "net/server.hpp"
#include "sender.hpp"
#include "zone/zone_store.hpp"

namespace perfbench {

struct ReplayConfig {
  /// Defense on the query's path (the workload's server runs it). When
  /// off, the defense calls still run per query as a shadow, off the
  /// answer path, so their cost is measured on every workload.
  bool defense_on_path = false;
  akadns::net::DefenseOptions defense{};
};

/// Mean per-query self time of each layer, in nanoseconds.
struct ReplayResult {
  std::size_t queries = 0;
  double cpu_us_per_query = 0.0;  // replay thread CPU per query
  double decode_ns = 0.0;
  double score_ns = 0.0;
  double queue_ns = 0.0;    // enqueue + next
  double observe_ns = 0.0;
  double respond_ns = 0.0;  // all answers
  double respond_hit_ns = 0.0;
  double respond_miss_ns = 0.0;
  double find_best_ns = 0.0;
};

/// Replays `stream` (corpus indices, in arrival order) against `store`.
/// With `log` non-null every call is recorded as a span; null runs the
/// identical calls untraced, which is what the overhead is measured
/// against.
ReplayResult replay(const akadns::zone::ZoneStore& store, const std::vector<Entry>& entries,
                    const std::vector<std::uint32_t>& stream, const ReplayConfig& config,
                    SpanLog* log);

}  // namespace perfbench

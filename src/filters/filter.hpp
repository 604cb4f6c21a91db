// Query scoring & prioritization framework (§4.3.3 of the paper).
//
// Each DNS query passes through a sequence of filters; each filter adds a
// penalty score. The total score S measures how "suspicious" the query
// is: queries with S >= discard_score are dropped outright, the rest are
// placed into penalty queues and processed in increasing-penalty order by
// a work-conserving scheduler (implemented in penalty_queues.hpp and
// driven by the nameserver in src/server).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/ip.hpp"
#include "dns/message.hpp"

namespace akadns::filters {

/// Everything a filter may inspect about an incoming query. Mirrors what
/// the production filters use: source address (rate limit / allowlist /
/// loyalty), IP TTL (hop-count), and the question (NXDOMAIN filter).
///
/// The question is *referenced*, not owned: it is decoded exactly once at
/// the nameserver's receive() and every scoring/observe pass shares that
/// decode. The referenced Question must outlive the context (true by
/// construction: the server's QueryContext owns it for the packet's whole
/// lifetime). Scoring a clean query performs zero allocations.
struct QueryContext {
  Endpoint source;
  std::uint8_t ip_ttl = 64;  // received IP TTL
  const dns::Question& question;
  /// The owning engine's clock reading at scoring time (common/clock.hpp):
  /// simulated time in the sim, CLOCK_MONOTONIC in the socket frontend.
  /// Filters age state against this axis and never read wall time.
  Timepoint now;
};

class Filter {
 public:
  virtual ~Filter() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Returns the penalty this filter adds for the query (0 = clean).
  virtual double score(const QueryContext& ctx) = 0;

  /// Called after the nameserver has produced a response, letting filters
  /// learn from outcomes (e.g. the NXDOMAIN filter counts NXDOMAINs).
  virtual void observe_response(const QueryContext& ctx, dns::Rcode rcode) {
    (void)ctx;
    (void)rcode;
  }
};

/// Builds one filter instance for a datapath shard. The sharded
/// nameserver keeps an independent ScoringEngine per lane; a factory is
/// invoked once per lane with (shard, shard_count) so stateful filters
/// can scale per-shard thresholds (e.g. an NXDOMAIN limit of N per zone
/// becomes N / shard_count per lane, since each lane only sees its own
/// slice of the traffic).
using FilterFactory =
    std::function<std::unique_ptr<Filter>(std::size_t shard, std::size_t shard_count)>;

/// Runs a configurable sequence of filters over each query.
class ScoringEngine {
 public:
  /// Appends a filter; filters run in insertion order.
  void add_filter(std::unique_ptr<Filter> filter);

  /// Total penalty for the query.
  double score(const QueryContext& ctx);

  /// Fans the response outcome out to every filter.
  void observe_response(const QueryContext& ctx, dns::Rcode rcode);

  std::size_t filter_count() const noexcept { return filters_.size(); }

  /// Access by name (for reconfiguration mid-attack, which the paper
  /// emphasizes: "all mitigation mechanisms are reconfigurable").
  Filter* find(std::string_view name) noexcept;

 private:
  std::vector<std::unique_ptr<Filter>> filters_;
};

}  // namespace akadns::filters

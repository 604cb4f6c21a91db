// The query-scoring defense pipeline (§4.3.3/§4.3.4), extracted from the
// nameserver into a transport-agnostic engine.
//
// A DefenseEngine owns everything between "a decoded query arrived" and
// "a query is handed to the responder": the query-of-death firewall, the
// I/O admission gate, per-lane filter chains (ScoringEngine), per-lane
// penalty-queue sets, the compute token-budget metering that turns the
// queues into a work-conserving priority scheduler, and drop accounting
// for every stage. It is parameterized on:
//
//   - Item: whatever the transport queues per admitted query (the sim and
//     the socket workers both use server::QueryContext);
//   - Clock (common/clock.hpp): the sim injects a ManualClock driven by
//     the EventScheduler — results are bit-identical to the pre-extraction
//     nameserver — while net::Server workers run the same engine on
//     CLOCK_MONOTONIC.
//
// Threading contract (identical to the sharded nameserver's):
//   - receive-side calls (firewall_drops / io_admit / score / enqueue)
//     and the phase boundaries (begin_phase / end_phase / flush_lane) are
//     serial;
//   - next() + observe_response() are parallel-safe for DISTINCT lanes:
//     they touch only that lane's queues/filters/counters.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/clock.hpp"
#include "common/drop_reason.hpp"
#include "common/ip.hpp"
#include "common/token_bucket.hpp"
#include "defense/firewall.hpp"
#include "filters/filter.hpp"
#include "filters/penalty_queues.hpp"
#include "obs/series.hpp"

namespace akadns::defense {

struct DefenseConfig {
  /// Independent defense lanes (one filter chain + queue set each). The
  /// sim nameserver runs one engine with N lanes; a socket worker runs a
  /// single-lane engine per worker (the kernel's RSS hash is its lane
  /// selector).
  std::size_t lanes = 1;
  /// Compute metering: queries begin_phase() may release per second.
  /// <= 0 disables metering — begin_phase() then budgets the whole
  /// backlog (pure work-conserving drain, no shaping).
  double compute_capacity_qps = 0.0;
  double compute_burst_fraction = 0.1;
  /// I/O admission gate (Figure 10, A > A2): packets io_admit() accepts
  /// per second. <= 0 disables the gate (real sockets let the kernel
  /// drop; the sim models the NIC with it).
  double io_capacity_qps = 0.0;
  double io_burst_fraction = 0.05;
  filters::PenaltyQueueConfig queue_config{};
};

/// Per-lane defense accounting: the one count of what the engine decides
/// (what the pipeline admitted, released, shed, and why). Transports
/// count only the fates they decide themselves, so a packet's fate is
/// never counted twice. There is no struct-level merge — aggregation
/// across lanes/workers/machines happens at scrape time through the
/// metrics registry (register_metrics / snapshot).
struct DefenseLaneStats {
  obs::Counter scored;    // queries run through the filter chain
  obs::Counter enqueued;  // admitted into a penalty queue
  obs::Counter released;  // dequeued for processing (budget granted)
  DropCounters drops;     // Firewall / IoOverload / ScoreDiscard / QueueFull / RestartFlush

  /// The engine's sheds have their own family; a transport's drop family
  /// holds only the reasons it decides, so conservation sums both.
  static constexpr obs::FamilySpec kDrops{"akadns_defense_drops_total", "reason",
                                          obs::kDropsFamily.help};
  static constexpr obs::SeriesRow<DefenseLaneStats> kSeries[] = {
      {{"akadns_defense_scored_total", "", "queries run through the filter chain"}, "",
       &DefenseLaneStats::scored},
      {{"akadns_defense_enqueued_total", "", "queries admitted into a penalty queue"}, "",
       &DefenseLaneStats::enqueued},
      {{"akadns_defense_released_total", "", "queries dequeued for processing"}, "",
       &DefenseLaneStats::released},
      {kDrops, "", &DefenseLaneStats::drops},
  };

  bool operator==(const DefenseLaneStats&) const noexcept = default;
};

template <typename Item>
class DefenseEngine {
 public:
  DefenseEngine(DefenseConfig config, const Clock& clock)
      : config_(config), clock_(&clock) {
    if (config_.lanes == 0) config_.lanes = 1;
    lanes_.reserve(config_.lanes);
    for (std::size_t i = 0; i < config_.lanes; ++i) lanes_.emplace_back(config_.queue_config);
    reset_buckets();
  }

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  const Clock& clock() const noexcept { return *clock_; }
  const DefenseConfig& config() const noexcept { return config_; }

  /// Lane a source endpoint is pinned to. RSS-style flow pinning: every
  /// packet of a (addr, port) flow lands in the same lane, so per-source
  /// filter state (rate limits, loyalty) is lane-local without sharing.
  /// Deliberately different mix constants from Pop::ecmp_select — reusing
  /// that hash would correlate the machine pick with the lane pick and
  /// skew every machine's traffic onto few lanes.
  std::size_t lane_of(const Endpoint& source) const noexcept {
    if (lanes_.size() == 1) return 0;
    std::uint64_t h = source.addr.hash();
    h ^= h >> 31;
    h *= 0x9e3779b97f4a7c15ULL;
    h += source.port;
    h ^= h >> 27;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h % lanes_.size());
  }

  // ---- receive side (serial) ----------------------------------------------

  Firewall& firewall() noexcept { return firewall_; }
  const Firewall& firewall() const noexcept { return firewall_; }

  /// Query-of-death rule check; counts a Firewall drop on a hit.
  bool firewall_drops(std::size_t lane, const dns::Question& question) {
    if (!firewall_.drops(question, clock_->now())) return false;
    lanes_[lane].stats.drops.add(DropReason::Firewall);
    return true;
  }

  /// I/O admission gate (engine-wide bucket — one NIC). Counts an
  /// IoOverload drop against `lane` when the packet is refused.
  bool io_admit(std::size_t lane) {
    if (!io_bucket_) return true;
    if (io_bucket_->try_take(clock_->now())) return true;
    lanes_[lane].stats.drops.add(DropReason::IoOverload);
    return false;
  }

  /// Total penalty the lane's filter chain assigns the query.
  double score(std::size_t lane, const filters::QueryContext& ctx) {
    ++lanes_[lane].stats.scored;
    return lanes_[lane].scoring.score(ctx);
  }

  /// Penalty-queue placement; counts ScoreDiscard / QueueFull drops.
  filters::EnqueueOutcome enqueue(std::size_t lane, Item item, double score) {
    Lane& l = lanes_[lane];
    const auto outcome = l.queues.enqueue(std::move(item), score);
    switch (outcome) {
      case filters::EnqueueOutcome::Enqueued: ++l.stats.enqueued; break;
      case filters::EnqueueOutcome::DiscardedByScore:
        l.stats.drops.add(DropReason::ScoreDiscard);
        break;
      case filters::EnqueueOutcome::DroppedQueueFull:
        l.stats.drops.add(DropReason::QueueFull);
        break;
    }
    return outcome;
  }

  // ---- processing phase ---------------------------------------------------
  //
  // begin_phase (serial) → next()/observe_response() per lane (parallel-
  // safe for distinct lanes) → end_phase (serial). A driver that stops
  // calling next() early (crash, drain deadline) simply leaves budget
  // unspent; end_phase refunds it to the compute bucket.

  /// Serial. Assigns per-lane budgets from the compute bucket, one token
  /// at a time round-robin in lane order (the take sequence a serial
  /// take-one/process-one loop would produce), capped per lane at its
  /// backlog. With metering disabled, every lane is budgeted its whole
  /// backlog. Returns false when there is nothing to release (no backlog
  /// or no tokens) — end_phase must not be called in that case.
  bool begin_phase() {
    phase_metered_ = true;
    for (auto& lane : lanes_) {
      lane.budget = 0;
      lane.processed = 0;
    }
    if (!compute_bucket_) {
      bool any = false;
      for (auto& lane : lanes_) {
        lane.budget = lane.queues.size();
        any |= lane.budget > 0;
      }
      phase_metered_ = false;
      return any;
    }
    const Timepoint now = clock_->now();
    bool any = false;
    bool assigned = true;
    while (assigned) {
      assigned = false;
      for (auto& lane : lanes_) {
        if (lane.budget >= lane.queues.size()) continue;
        if (!compute_bucket_->try_take(now)) return any;
        ++lane.budget;
        any = true;
        assigned = true;
      }
    }
    return any;
  }

  /// Serial. Spreads a caller-supplied budget round-robin across lanes
  /// with backlog, bypassing the compute bucket (end_phase will not
  /// refund). Used by tests and drivers that meter compute themselves.
  void begin_phase_unmetered(std::size_t budget) {
    phase_metered_ = false;
    for (auto& lane : lanes_) {
      lane.budget = 0;
      lane.processed = 0;
    }
    std::size_t remaining = budget;
    bool assigned = true;
    while (remaining > 0 && assigned) {
      assigned = false;
      for (auto& lane : lanes_) {
        if (remaining == 0) break;
        if (lane.budget >= lane.queues.size()) continue;
        ++lane.budget;
        --remaining;
        assigned = true;
      }
    }
  }

  std::size_t lane_budget(std::size_t lane) const noexcept { return lanes_[lane].budget; }

  /// Parallel-safe for distinct lanes. The next query the work-conserving
  /// scheduler releases for `lane`: lowest-penalty head, while the lane's
  /// phase budget lasts. nullopt when the budget is spent or the lane is
  /// empty.
  std::optional<Item> next(std::size_t lane) {
    Lane& l = lanes_[lane];
    if (l.processed >= l.budget) return std::nullopt;
    auto item = l.queues.dequeue();
    if (!item) return std::nullopt;
    ++l.processed;
    ++l.stats.released;
    return item;
  }

  /// Parallel-safe for distinct lanes. Fans a response outcome back to
  /// the lane's filters (NXDOMAIN counting etc.).
  void observe_response(std::size_t lane, const filters::QueryContext& ctx, dns::Rcode rcode) {
    lanes_[lane].scoring.observe_response(ctx, rcode);
  }

  /// Serial. Refunds unspent metered budget to the compute bucket and
  /// closes the phase. Returns the number of queries released this phase.
  std::size_t end_phase() {
    std::size_t total = 0;
    for (auto& lane : lanes_) {
      total += lane.processed;
      if (phase_metered_ && compute_bucket_ && lane.budget > lane.processed) {
        compute_bucket_->credit(static_cast<double>(lane.budget - lane.processed));
      }
      lane.budget = 0;
      lane.processed = 0;
    }
    phase_metered_ = true;
    return total;
  }

  // ---- lifecycle ----------------------------------------------------------

  /// Drops everything queued in `lane` (accounted as RestartFlush) and
  /// resets its phase state. Returns the number flushed.
  std::size_t flush_lane(std::size_t lane) {
    Lane& l = lanes_[lane];
    const std::size_t flushed = l.queues.size();
    if (flushed > 0) l.stats.drops.add(DropReason::RestartFlush, flushed);
    l.queues = filters::PenaltyQueueSet<Item>(config_.queue_config);
    l.budget = 0;
    l.processed = 0;
    return flushed;
  }

  /// Restores both buckets to their full-capacity initial state (instance
  /// restart semantics).
  void reset_buckets() {
    if (config_.compute_capacity_qps > 0.0) {
      compute_bucket_.emplace(config_.compute_capacity_qps,
                              config_.compute_capacity_qps * config_.compute_burst_fraction);
    } else {
      compute_bucket_.reset();
    }
    if (config_.io_capacity_qps > 0.0) {
      io_bucket_.emplace(config_.io_capacity_qps,
                         config_.io_capacity_qps * config_.io_burst_fraction);
    } else {
      io_bucket_.reset();
    }
  }

  // ---- filters ------------------------------------------------------------

  /// Installs one filter instance per lane via the factory (each lane
  /// scores independently, so stateful filters shard their learned state).
  void install_filter(const filters::FilterFactory& factory) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i].scoring.add_filter(factory(i, lanes_.size()));
    }
  }

  filters::ScoringEngine& scoring(std::size_t lane) noexcept { return lanes_[lane].scoring; }

  // ---- introspection ------------------------------------------------------

  const filters::PenaltyQueueSet<Item>& queues(std::size_t lane) const noexcept {
    return lanes_[lane].queues;
  }

  bool has_pending() const noexcept {
    for (const auto& lane : lanes_) {
      if (!lane.queues.empty()) return true;
    }
    return false;
  }
  std::size_t pending() const noexcept {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane.queues.size();
    return n;
  }
  std::size_t lane_pending(std::size_t lane) const noexcept { return lanes_[lane].queues.size(); }

  const DefenseLaneStats& lane_stats(std::size_t lane) const noexcept {
    return lanes_[lane].stats;
  }

  /// Registers every lane's defense counters (lane-labelled) plus the
  /// live per-priority queue-depth gauges under `base`. The engine view
  /// that the old stats() merge produced is now a registry sum.
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      obs::register_series(reg, obs::with(base, "lane", i), lanes_[i].stats);
    }
    const std::size_t queues = config_.queue_config.max_scores.size();
    for (std::size_t q = 0; q < queues; ++q) {
      reg.gauge_fn(
          "akadns_penalty_queue_depth", obs::with(base, "queue", q),
          [this, q] {
            std::size_t depth = 0;
            for (const auto& lane : lanes_) depth += lane.queues.queue_depth(q);
            return static_cast<double>(depth);
          },
          obs::GaugeAgg::Sum, "live penalty-queue backlog per priority");
    }
  }

  /// Live penalty-queue depths summed per priority index across lanes —
  /// the backlog shape the NOCC watches during an attack.
  std::vector<std::size_t> queue_depths() const {
    std::vector<std::size_t> depths(config_.queue_config.max_scores.size(), 0);
    for (const auto& lane : lanes_) {
      for (std::size_t q = 0; q < depths.size(); ++q) depths[q] += lane.queues.queue_depth(q);
    }
    return depths;
  }

 private:
  /// One independent defense shard: filter chain, penalty queues, phase
  /// budget, and counters. next()/observe_response() touch nothing else.
  struct Lane {
    explicit Lane(const filters::PenaltyQueueConfig& queue_config) : queues(queue_config) {}

    filters::ScoringEngine scoring;
    filters::PenaltyQueueSet<Item> queues;
    DefenseLaneStats stats;
    std::size_t budget = 0;
    std::size_t processed = 0;
  };

  DefenseConfig config_;
  const Clock* clock_;
  Firewall firewall_;
  std::optional<TokenBucket> compute_bucket_;
  std::optional<TokenBucket> io_bucket_;
  bool phase_metered_ = true;
  std::vector<Lane> lanes_;
};

}  // namespace akadns::defense

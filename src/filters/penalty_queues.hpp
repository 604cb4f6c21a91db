// Penalty queues and work-conserving priority dequeue (§4.3.3).
//
// "The DNS query is placed into one of a configurable number of queues
// according to score. Each queue i has a maximum score value Mi and the
// query is placed into the queue i with the minimum Mi such that S <= Mi.
// Queries with a high score, S >= Smax, are discarded outright. Queries
// are read from queues in the increasing order of penalty ... processing
// is work-conserving ... starvation is allowed in all queues except the
// lowest-penalty queue."
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace akadns::filters {

struct PenaltyQueueConfig {
  /// Ascending per-queue maximum scores M_i. A query lands in the first
  /// queue whose M_i >= its score.
  std::vector<double> max_scores{0.0, 50.0, 150.0};
  /// Scores >= this are discarded outright (S_max).
  double discard_score = 200.0;
  /// Bounded per-queue capacity; arrivals beyond it are tail-dropped
  /// (models finite socket/application buffers).
  std::size_t queue_capacity = 4096;
};

enum class EnqueueOutcome : std::uint8_t {
  Enqueued,
  DiscardedByScore,  // S >= S_max: "definitively malicious"
  DroppedQueueFull,
};

template <typename Item>
class PenaltyQueueSet {
 public:
  explicit PenaltyQueueSet(PenaltyQueueConfig config = {}) : config_(std::move(config)) {
    if (config_.max_scores.empty()) throw std::invalid_argument("need at least one queue");
    for (std::size_t i = 1; i < config_.max_scores.size(); ++i) {
      if (config_.max_scores[i] <= config_.max_scores[i - 1]) {
        throw std::invalid_argument("queue max scores must be strictly ascending");
      }
    }
    queues_.resize(config_.max_scores.size());
  }

  /// Places `item` by score. The set keeps no outcome tallies: the
  /// caller (the defense engine) counts each returned outcome once.
  EnqueueOutcome enqueue(Item item, double score) {
    if (score >= config_.discard_score) return EnqueueOutcome::DiscardedByScore;
    const std::size_t idx = queue_index(score);
    Ring& q = queues_[idx];
    if (q.count >= config_.queue_capacity) return EnqueueOutcome::DroppedQueueFull;
    if (q.count == q.slots.size()) grow(q);
    q.slots[q.wrap(q.head + q.count)] = std::move(item);
    ++q.count;
    ++size_;
    if (idx < first_nonempty_) first_nonempty_ = idx;
    return EnqueueOutcome::Enqueued;
  }

  /// Pops the head of the lowest-penalty non-empty queue (work-conserving:
  /// higher-penalty queues are served whenever lower ones are empty).
  /// Resumes the scan from the lowest possibly-non-empty index instead of
  /// rescanning all queues from 0 on every pop — `first_nonempty_` only
  /// moves forward here and is pulled back by enqueue(), so a drain of n
  /// items costs O(n + queues), not O(n * queues).
  std::optional<Item> dequeue() {
    while (first_nonempty_ < queues_.size() && queues_[first_nonempty_].count == 0) {
      ++first_nonempty_;
    }
    if (first_nonempty_ == queues_.size()) return std::nullopt;
    Ring& q = queues_[first_nonempty_];
    Item item = std::move(q.slots[q.head]);
    q.head = q.wrap(q.head + 1);
    --q.count;
    --size_;
    return item;
  }

  /// Queue a score would map to (exposed for tests/diagnostics).
  std::size_t queue_index(double score) const noexcept {
    for (std::size_t i = 0; i < config_.max_scores.size(); ++i) {
      if (score <= config_.max_scores[i]) return i;
    }
    // score < discard_score but above the last M_i: lands in the last
    // (highest-penalty) queue.
    return config_.max_scores.size() - 1;
  }

  bool empty() const noexcept { return size_ == 0; }

  std::size_t size() const noexcept { return size_; }

  std::size_t queue_depth(std::size_t i) const { return queues_.at(i).count; }
  std::size_t queue_count() const noexcept { return queues_.size(); }

  const PenaltyQueueConfig& config() const noexcept { return config_; }

 private:
  /// One FIFO queue: a ring over slots that grow on demand, up to
  /// queue_capacity, and are then reused — a queue that has reached its
  /// working depth allocates nothing per item. Nothing is allocated
  /// before the first enqueue, as fleets build a queue set per lane.
  struct Ring {
    std::vector<Item> slots;
    std::size_t head = 0;
    std::size_t count = 0;

    std::size_t wrap(std::size_t i) const noexcept {
      return i >= slots.size() ? i - slots.size() : i;
    }
  };

  /// Doubles a full ring's slots (at least 16, at most queue_capacity),
  /// moving its items to the front in FIFO order.
  void grow(Ring& q) {
    std::vector<Item> slots(
        std::min(std::max<std::size_t>(2 * q.slots.size(), 16), config_.queue_capacity));
    for (std::size_t i = 0; i < q.count; ++i) slots[i] = std::move(q.slots[q.wrap(q.head + i)]);
    q.slots = std::move(slots);
    q.head = 0;
  }

  PenaltyQueueConfig config_;
  std::vector<Ring> queues_;
  /// Lowest index that may hold items; dequeue() resumes its scan here.
  std::size_t first_nonempty_ = 0;
  std::size_t size_ = 0;
};

}  // namespace akadns::filters

// Property tests for the penalty queues against a naive reference model:
// under random enqueue/dequeue interleavings, the real implementation
// and the reference agree exactly, and the §4.3.3 invariants hold
// (lowest-penalty-first, FIFO within a queue, S_max discard, bounded
// capacity).

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "filters/penalty_queues.hpp"

namespace akadns::filters {
namespace {

/// Naive reference: a vector of FIFO deques.
class ReferenceQueues {
 public:
  explicit ReferenceQueues(const PenaltyQueueConfig& config) : config_(config) {
    queues_.resize(config.max_scores.size());
  }

  EnqueueOutcome enqueue(int item, double score) {
    if (score >= config_.discard_score) return EnqueueOutcome::DiscardedByScore;
    std::size_t idx = config_.max_scores.size() - 1;
    for (std::size_t i = 0; i < config_.max_scores.size(); ++i) {
      if (score <= config_.max_scores[i]) {
        idx = i;
        break;
      }
    }
    if (queues_[idx].size() >= config_.queue_capacity) {
      return EnqueueOutcome::DroppedQueueFull;
    }
    queues_[idx].push_back(item);
    return EnqueueOutcome::Enqueued;
  }

  std::optional<int> dequeue() {
    for (auto& q : queues_) {
      if (!q.empty()) {
        const int item = q.front();
        q.pop_front();
        return item;
      }
    }
    return std::nullopt;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& q : queues_) n += q.size();
    return n;
  }

 private:
  PenaltyQueueConfig config_;
  std::vector<std::deque<int>> queues_;
};

class QueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  PenaltyQueueConfig config;
  config.max_scores = {0.0, 40.0, 120.0};
  config.discard_score = 180.0;
  config.queue_capacity = 8;
  PenaltyQueueSet<int> real(config);
  ReferenceQueues reference(config);

  int next_item = 0;
  for (int op = 0; op < 5000; ++op) {
    if (rng.next_bool(0.6)) {
      const double score = rng.next_double(0.0, 220.0);
      const int item = next_item++;
      EXPECT_EQ(real.enqueue(item, score), reference.enqueue(item, score)) << "op " << op;
    } else {
      EXPECT_EQ(real.dequeue(), reference.dequeue()) << "op " << op;
    }
    ASSERT_EQ(real.size(), reference.size()) << "op " << op;
  }
  // Drain and compare the tails.
  while (true) {
    const auto a = real.dequeue();
    const auto b = reference.dequeue();
    EXPECT_EQ(a, b);
    if (!a) break;
  }
}

TEST_P(QueueProperty, DequeueOrderRespectsPenaltyThenFifo) {
  Rng rng(GetParam() ^ 0x9);
  PenaltyQueueConfig config;
  config.max_scores = {0.0, 50.0, 150.0};
  config.discard_score = 200.0;
  config.queue_capacity = 100000;
  PenaltyQueueSet<std::pair<int, int>> queues(config);  // (queue idx, seq)

  std::vector<int> seq_per_queue(3, 0);
  for (int i = 0; i < 1000; ++i) {
    const double score = rng.next_double(0.0, 199.0);
    const auto idx = queues.queue_index(score);
    queues.enqueue({static_cast<int>(idx), seq_per_queue[idx]++}, score);
  }
  int last_queue = 0;
  std::vector<int> last_seq(3, -1);
  while (auto item = queues.dequeue()) {
    const auto [queue_idx, seq] = *item;
    // Since nothing is enqueued during the drain, the queue index can
    // only increase.
    EXPECT_GE(queue_idx, last_queue);
    last_queue = queue_idx;
    // FIFO within each queue.
    EXPECT_GT(seq, last_seq[static_cast<std::size_t>(queue_idx)]);
    last_seq[static_cast<std::size_t>(queue_idx)] = seq;
  }
}

TEST_P(QueueProperty, AccountingIdentityHolds) {
  Rng rng(GetParam() ^ 0x77);
  PenaltyQueueConfig config;
  config.max_scores = {0.0, 60.0};
  config.discard_score = 120.0;
  config.queue_capacity = 16;
  PenaltyQueueSet<int> queues(config);
  // The set keeps no tallies; count the outcomes it returns.
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  for (int op = 0; op < 3000; ++op) {
    if (rng.next_bool(0.7)) {
      enqueued += queues.enqueue(op, rng.next_double(0.0, 150.0)) == EnqueueOutcome::Enqueued;
    } else {
      dequeued += queues.dequeue().has_value();
    }
    // enqueued == dequeued + still-queued, and drops are never enqueued.
    ASSERT_EQ(enqueued, dequeued + queues.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueProperty, ::testing::Range<std::uint64_t>(1, 7));

// Directed parity test for the dequeue scan-resume optimization: dequeue
// remembers the lowest possibly-non-empty queue instead of rescanning
// from index 0, and enqueue must pull that cursor back when a
// lower-penalty item arrives. This sequence exercises every cursor
// transition: advance past emptied queues, full drain, and pull-back.
TEST(QueueScanResume, EnqueueAfterDrainReachesLowerPenaltyQueuesAgain) {
  PenaltyQueueConfig config;
  config.max_scores = {0.0, 50.0, 150.0};
  config.discard_score = 200.0;
  PenaltyQueueSet<int> queues(config);
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  const auto enqueue = [&](int item, double score) {
    enqueued += queues.enqueue(item, score) == EnqueueOutcome::Enqueued;
  };
  const auto dequeue = [&] {
    auto item = queues.dequeue();
    dequeued += item.has_value();
    return item;
  };

  // Fill only the highest-penalty queue; the scan must advance past the
  // two empty ones.
  enqueue(30, 140.0);
  enqueue(31, 140.0);
  EXPECT_EQ(dequeue(), 30);

  // A lower-penalty arrival after the cursor advanced must be served
  // first again (work-conserving order, not scan-cursor order).
  enqueue(10, 0.0);
  enqueue(20, 40.0);
  EXPECT_EQ(dequeue(), 10);
  EXPECT_EQ(dequeue(), 20);
  EXPECT_EQ(dequeue(), 31);
  EXPECT_EQ(dequeue(), std::nullopt);
  EXPECT_TRUE(queues.empty());
  EXPECT_EQ(queues.size(), 0u);

  // After a full drain (cursor at the end), the lowest queue works again.
  enqueue(11, 0.0);
  EXPECT_FALSE(queues.empty());
  EXPECT_EQ(queues.size(), 1u);
  EXPECT_EQ(dequeue(), 11);
  EXPECT_EQ(dequeue(), std::nullopt);

  // Accounting survived all cursor movement.
  EXPECT_EQ(enqueued, 5u);
  EXPECT_EQ(dequeued, 5u);
}

}  // namespace
}  // namespace akadns::filters

#include "filters/filter.hpp"

#include <gtest/gtest.h>

#include "filters/penalty_queues.hpp"

namespace akadns::filters {
namespace {

/// Test filter adding a fixed penalty.
class FixedFilter : public Filter {
 public:
  FixedFilter(std::string name, double penalty) : name_(std::move(name)), penalty_(penalty) {}
  std::string_view name() const noexcept override { return name_; }
  double score(const QueryContext&) override { return penalty_; }
  void observe_response(const QueryContext&, dns::Rcode rcode) override {
    last_rcode = rcode;
    ++observations;
  }
  dns::Rcode last_rcode = dns::Rcode::NoError;
  int observations = 0;

 private:
  std::string name_;
  double penalty_;
};

// QueryContext references its question; a static keeps it alive.
const dns::Question& fixed_question() {
  static const dns::Question q{dns::DnsName::from("x.example.com"), dns::RecordType::A,
                               dns::RecordClass::IN};
  return q;
}

QueryContext ctx() {
  return QueryContext{Endpoint{*IpAddr::parse("10.0.0.1"), 5353}, 64, fixed_question(),
                      SimTime()};
}

TEST(ScoringEngine, SumsFilterPenalties) {
  ScoringEngine engine;
  engine.add_filter(std::make_unique<FixedFilter>("a", 10.0));
  engine.add_filter(std::make_unique<FixedFilter>("b", 0.0));
  engine.add_filter(std::make_unique<FixedFilter>("c", 32.0));
  EXPECT_DOUBLE_EQ(engine.score(ctx()), 42.0);
  EXPECT_EQ(engine.filter_count(), 3u);
}

TEST(ScoringEngine, ObserveResponseFansOut) {
  ScoringEngine engine;
  auto* a = new FixedFilter("a", 0.0);
  auto* b = new FixedFilter("b", 0.0);
  engine.add_filter(std::unique_ptr<Filter>(a));
  engine.add_filter(std::unique_ptr<Filter>(b));
  engine.observe_response(ctx(), dns::Rcode::NxDomain);
  EXPECT_EQ(a->observations, 1);
  EXPECT_EQ(b->last_rcode, dns::Rcode::NxDomain);
}

TEST(ScoringEngine, FindByName) {
  ScoringEngine engine;
  engine.add_filter(std::make_unique<FixedFilter>("rate_limit", 1.0));
  EXPECT_NE(engine.find("rate_limit"), nullptr);
  EXPECT_EQ(engine.find("missing"), nullptr);
}

TEST(PenaltyQueues, PlacementByScore) {
  PenaltyQueueSet<int> queues(
      PenaltyQueueConfig{.max_scores = {0.0, 50.0, 150.0}, .discard_score = 200.0});
  EXPECT_EQ(queues.queue_index(0.0), 0u);
  EXPECT_EQ(queues.queue_index(10.0), 1u);
  EXPECT_EQ(queues.queue_index(50.0), 1u);
  EXPECT_EQ(queues.queue_index(51.0), 2u);
  EXPECT_EQ(queues.queue_index(199.0), 2u);  // above last M_i, below S_max
}

TEST(PenaltyQueues, DiscardAtSmax) {
  PenaltyQueueSet<int> queues(
      PenaltyQueueConfig{.max_scores = {0.0, 50.0}, .discard_score = 100.0});
  EXPECT_EQ(queues.enqueue(1, 100.0), EnqueueOutcome::DiscardedByScore);
  EXPECT_EQ(queues.enqueue(2, 250.0), EnqueueOutcome::DiscardedByScore);
  EXPECT_TRUE(queues.empty());
}

TEST(PenaltyQueues, DequeueLowestPenaltyFirst) {
  PenaltyQueueSet<int> queues(
      PenaltyQueueConfig{.max_scores = {0.0, 50.0, 150.0}, .discard_score = 200.0});
  queues.enqueue(3, 160.0);
  queues.enqueue(2, 40.0);
  queues.enqueue(1, 0.0);
  queues.enqueue(10, 0.0);
  EXPECT_EQ(queues.dequeue(), 1);
  EXPECT_EQ(queues.dequeue(), 10);
  EXPECT_EQ(queues.dequeue(), 2);
  EXPECT_EQ(queues.dequeue(), 3);
  EXPECT_FALSE(queues.dequeue().has_value());
}

TEST(PenaltyQueues, WorkConservingServesSuspiciousWhenIdle) {
  PenaltyQueueSet<int> queues(
      PenaltyQueueConfig{.max_scores = {0.0, 50.0}, .discard_score = 100.0});
  queues.enqueue(9, 60.0);  // suspicious only
  EXPECT_EQ(queues.dequeue(), 9);
}

TEST(PenaltyQueues, BoundedCapacityTailDrops) {
  PenaltyQueueSet<int> queues(PenaltyQueueConfig{
      .max_scores = {0.0}, .discard_score = 100.0, .queue_capacity = 2});
  EXPECT_EQ(queues.enqueue(1, 0.0), EnqueueOutcome::Enqueued);
  EXPECT_EQ(queues.enqueue(2, 0.0), EnqueueOutcome::Enqueued);
  EXPECT_EQ(queues.enqueue(3, 0.0), EnqueueOutcome::DroppedQueueFull);
  EXPECT_EQ(queues.size(), 2u);
}

TEST(PenaltyQueues, StatsCounters) {
  PenaltyQueueSet<int> queues(
      PenaltyQueueConfig{.max_scores = {0.0, 50.0}, .discard_score = 100.0});
  // The set keeps no tallies; its caller counts the returned outcomes.
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  enqueued += queues.enqueue(1, 0.0) == EnqueueOutcome::Enqueued;
  enqueued += queues.enqueue(2, 10.0) == EnqueueOutcome::Enqueued;
  dequeued += queues.dequeue().has_value();
  EXPECT_EQ(enqueued, 2u);
  EXPECT_EQ(dequeued, 1u);
  EXPECT_EQ(queues.size(), enqueued - dequeued);
  EXPECT_EQ(queues.queue_depth(1), 1u);
  EXPECT_EQ(queues.queue_count(), 2u);
}

TEST(PenaltyQueues, InvalidConfigThrows) {
  EXPECT_THROW(PenaltyQueueSet<int>(PenaltyQueueConfig{.max_scores = {}}),
               std::invalid_argument);
  EXPECT_THROW(PenaltyQueueSet<int>(PenaltyQueueConfig{.max_scores = {10.0, 5.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace akadns::filters

// FaultHooks implementations: the in-process face of a FaultPlan.
//
// PlanInjector drives propagation's fault seam from the same FaultPlan
// the relay executes on sockets — sends draw from the `up` spec, reads
// from `down`, and every operation class gets its own ordinal space, so
// a unit test reproduces "the third transfer read fails" as
// deterministically as the relay reproduces "the third datagram drops".
//
// ScriptedInjector is the directed-test face: enqueue exact fates per
// operation ("fail the second StreamMessage") and the default (no
// fault) applies once the script runs out.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "chaos/fault_plan.hpp"
#include "chaos/fault_stream.hpp"
#include "propagation/fault_hooks.hpp"

namespace akadns::chaos {

class PlanInjector : public propagation::FaultHooks {
 public:
  explicit PlanInjector(const FaultPlan& plan) {
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto op = static_cast<propagation::SyncOp>(i);
      const bool upward = op == propagation::SyncOp::ProbeSend ||
                          op == propagation::SyncOp::TransferConnect ||
                          op == propagation::SyncOp::TransferWrite;
      const std::uint64_t tag =
          (upward ? kDirUp : kDirDown) ^ ((i + 1) * 0x100000001b3ULL);
      streams_[i].emplace(upward ? plan.up : plan.down, plan.seed, tag);
    }
  }

  propagation::OpFate on_op(propagation::SyncOp op) override {
    const auto i = static_cast<std::size_t>(op);
    std::uint64_t index;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      index = indices_[i]++;
    }
    const PacketFate fate = streams_[i]->fate(index);
    propagation::OpFate out;
    out.fail = fate.drop;
    out.delay = fate.delay;
    return out;
  }

 private:
  static constexpr std::size_t kOps = 6;
  std::array<std::optional<FaultStream>, kOps> streams_;
  std::mutex mutex_;
  std::array<std::uint64_t, kOps> indices_{};
};

class ScriptedInjector : public propagation::FaultHooks {
 public:
  /// Enqueues the fate the next unscripted call for `op` will receive.
  void push(propagation::SyncOp op, propagation::OpFate fate) {
    const std::lock_guard<std::mutex> lock(mutex_);
    queues_[static_cast<std::size_t>(op)].push_back(fate);
  }

  /// Shorthand: let the next `ok` calls for `op` succeed, then fail one.
  void fail_nth(propagation::SyncOp op, std::size_t ok) {
    for (std::size_t i = 0; i < ok; ++i) push(op, {});
    push(op, {.fail = true, .delay = Duration::zero()});
  }

  propagation::OpFate on_op(propagation::SyncOp op) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& queue = queues_[static_cast<std::size_t>(op)];
    ++calls_[static_cast<std::size_t>(op)];
    if (queue.empty()) return {};
    const propagation::OpFate fate = queue.front();
    queue.pop_front();
    return fate;
  }

  /// How often `op` was consulted (test assertions).
  std::uint64_t calls(propagation::SyncOp op) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return calls_[static_cast<std::size_t>(op)];
  }

 private:
  static constexpr std::size_t kOps = 6;
  mutable std::mutex mutex_;
  std::array<std::deque<propagation::OpFate>, kOps> queues_;
  std::array<std::uint64_t, kOps> calls_{};
};

}  // namespace akadns::chaos

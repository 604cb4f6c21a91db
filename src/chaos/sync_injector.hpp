// ScriptedInjector: the in-process FaultHooks for directed tests.
// Enqueue exact fates per operation ("fail the second StreamMessage",
// "stall the first TransferRead for 600 ms"); the default (no fault)
// applies once the script runs out. The FaultPlan is the other face of
// chaos and acts only on sockets, in the relay (fleet::AnycastFront).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>

#include "propagation/fault_hooks.hpp"

namespace akadns::chaos {

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

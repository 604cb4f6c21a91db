#include "fleet/supervisor.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace akadns::fleet {

Supervisor::Supervisor(SupervisorConfig config, EventFn on_event)
    : config_(std::move(config)), on_event_(std::move(on_event)) {
  config_.ports.resize(config_.machines, 0);
  slots_.resize(config_.machines);
}

Supervisor::~Supervisor() { stop(0); }

std::int64_t Supervisor::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpawnSpec Supervisor::spec_for(std::size_t index) const {
  SpawnSpec spec;
  spec.id = "m";
  spec.id += std::to_string(index);
  spec.binary = config_.serve_binary;
  spec.args = config_.common_args;
  spec.args.emplace_back("--port");
  spec.args.emplace_back(std::to_string(config_.ports[index]));
  return spec;
}

void Supervisor::emit(const Event& event) {
  if (on_event_) on_event_(event);
}

Result<bool> Supervisor::start() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].proc = MachineProcess(spec_for(i));
      if (auto spawned = slots_[i].proc.spawn(); !spawned) {
        const std::string message =
            "spawn " + slots_[i].proc.spec().id + ": " + spawned.error();
        lock.unlock();  // stop() re-locks
        stop(0);
        return Result<bool>::failure(message);
      }
    }
  }
  // Handshakes complete concurrently; wait for each in turn (the budget
  // is per machine, and machines start in parallel anyway). Holding the
  // lock across wait_ready is fine: observers only start once start()
  // has returned.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Event up;
    std::string error;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = slots_[i];
      if (!slot.proc.wait_ready(config_.ready_timeout_ms)) {
        const std::string detail =
            slot.proc.state() == MachineProcess::State::Exited
                ? " (exited with code " + std::to_string(slot.proc.exit_code()) + ")"
                : " (no ready line)";
        error = "machine " + slot.proc.spec().id + " failed to start" + detail;
      } else {
        slot.announced_up = true;
        up = Event{EventKind::Up, i, slot.proc.spec().id, *slot.proc.ready(), 0, 0,
                   slot.restarts};
      }
    }
    if (!error.empty()) {
      stop(0);
      return Result<bool>::failure(error);
    }
    emit(up);
  }
  return true;
}

void Supervisor::poll() {
  // State transitions happen under the lock; the resulting events are
  // emitted after it is released so the callback can safely call back
  // into signal_machine()/snapshot().
  std::vector<Event> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = now_ms();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      slot.proc.poll();
      switch (slot.proc.state()) {
        case MachineProcess::State::Exited:
          if (slot.respawn_at_ms < 0) {
            pending.push_back(Event{EventKind::Down, i, slot.proc.spec().id,
                                    slot.proc.ready().value_or(net::ReadyLine{}),
                                    slot.proc.exit_code(), slot.proc.term_signal(),
                                    slot.restarts});
            if (!stopping_) {
              slot.backoff_ms = slot.backoff_ms == 0
                                    ? config_.backoff_min_ms
                                    : std::min(slot.backoff_ms * 2, config_.backoff_max_ms);
              slot.respawn_at_ms = now + slot.backoff_ms;
            }
          }
          if (!stopping_ && slot.respawn_at_ms >= 0 && now >= slot.respawn_at_ms) {
            slot.respawn_at_ms = -1;
            slot.announced_up = false;
            ++slot.restarts;
            ++stats_.restarts;
            slot.proc = MachineProcess(spec_for(i));
            (void)slot.proc.spawn();  // a failed spawn re-enters via Exited/Idle
            if (slot.proc.state() == MachineProcess::State::Idle) {
              // spawn() itself failed (fork/pipe); retry after backoff.
              slot.backoff_ms =
                  std::min(std::max(slot.backoff_ms * 2, config_.backoff_min_ms),
                           config_.backoff_max_ms);
              slot.respawn_at_ms = now + slot.backoff_ms;
            }
          }
          break;
        case MachineProcess::State::Ready:
          if (!slot.announced_up) {
            slot.announced_up = true;
            slot.backoff_ms = 0;  // a completed handshake resets the backoff
            pending.push_back(Event{EventKind::Up, i, slot.proc.spec().id,
                                    *slot.proc.ready(), 0, 0, slot.restarts});
          }
          break;
        case MachineProcess::State::Starting:
        case MachineProcess::State::Idle:
          break;
      }
    }
  }
  for (const auto& event : pending) emit(event);
}

void Supervisor::stop(int drain_timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& slot : slots_) slot.proc.send_signal(SIGTERM);
  }
  const std::int64_t deadline = now_ms() + drain_timeout_ms;
  for (;;) {
    bool all_done = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& slot : slots_) {
        slot.proc.poll();
        const auto state = slot.proc.state();
        if (state != MachineProcess::State::Exited && state != MachineProcess::State::Idle) {
          all_done = false;
        }
      }
    }
    if (all_done || now_ms() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : slots_) {
    const auto state = slot.proc.state();
    if (state != MachineProcess::State::Exited && state != MachineProcess::State::Idle) {
      slot.proc.send_signal(SIGKILL);
      slot.proc.wait_exit(2000);
    }
  }
}

bool Supervisor::signal_machine(std::size_t index, int sig) {
  if (index >= slots_.size()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[index].proc.send_signal(sig);
}

bool Supervisor::signal_machine(const std::string& id, int sig) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : slots_) {
    if (slot.proc.spec().id == id) return slot.proc.send_signal(sig);
  }
  return false;
}

std::vector<Supervisor::MachineView> Supervisor::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineView> views;
  views.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    MachineView view;
    view.index = i;
    view.id = slot.proc.spec().id;
    view.state = slot.proc.state();
    view.ready = slot.proc.ready();
    view.pid = slot.proc.pid();
    view.restarts = slot.restarts;
    views.push_back(std::move(view));
  }
  return views;
}

std::size_t Supervisor::restarts(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.at(index).restarts;
}

std::size_t Supervisor::up_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot.proc.state() == MachineProcess::State::Ready) ++n;
  }
  return n;
}

}  // namespace akadns::fleet

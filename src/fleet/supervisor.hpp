// The PoP supervisor: N akadns-serve machines as real child processes.
//
// Spawns the fleet, performs the ready-line handshake per machine, and
// keeps the PoP populated: a machine that exits — crash, kill -9 from a
// failover drill, or a clean shutdown the supervisor did not order — is
// respawned after an exponential backoff (so a crash-looping binary
// cannot busy-spin the host). Ephemeral ports are first-class: a
// restarted machine reports fresh ports in its new ready line, and the
// Up event carries them so the anycast front and the probe suite re-aim
// without configuration.
//
// Everything runs off a single poll() the owner calls from its main
// loop; no thread per child, no signals consumed in the parent. Other
// threads (the probe suite, a stats exporter) observe the fleet through
// snapshot()/up_count() (and the lock-free counters register_metrics()
// exports) and poke it through
// signal_machine() — those entry points and poll() share one internal
// mutex, so a respawn in poll() can never race a reader mid
// move-assignment of the slot's MachineProcess.
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "fleet/machine_process.hpp"
#include "obs/series.hpp"

namespace akadns::fleet {

/// The supervisor's counters; poll() is their one writer.
struct SupervisorStats {
  obs::Counter restarts;  // machines respawned, over every slot

  static constexpr obs::SeriesRow<SupervisorStats> kSeries[] = {
      {{"akadns_fleet_restarts_total", "", "machine restarts"}, "", &SupervisorStats::restarts},
  };
};

struct SupervisorConfig {
  std::string serve_binary;
  std::size_t machines = 3;
  /// argv tail shared by every machine (zones, seed, workers, defense).
  /// Per-machine --port/--stats-port args are appended by the supervisor.
  std::vector<std::string> common_args;
  /// Requested DNS port per machine (resized/0-filled to `machines`);
  /// 0 binds ephemeral and the ready line reports what was bound.
  std::vector<std::uint16_t> ports;
  /// Per-machine handshake budget at start().
  int ready_timeout_ms = 15000;
  /// Restart backoff: doubles from min to max on consecutive deaths,
  /// resets once a respawned machine completes its handshake.
  std::int64_t backoff_min_ms = 200;
  std::int64_t backoff_max_ms = 5000;
};

class Supervisor {
 public:
  enum class EventKind {
    Up,        // ready-line handshake completed (initial start or restart)
    Down,      // machine exited (any reason)
  };
  struct Event {
    EventKind kind = EventKind::Up;
    std::size_t index = 0;
    std::string id;
    net::ReadyLine ready{};   // valid for Up
    int exit_code = -1;       // valid for Down
    int term_signal = 0;      // valid for Down
    std::size_t restarts = 0;
  };
  using EventFn = std::function<void(const Event&)>;

  Supervisor(SupervisorConfig config, EventFn on_event);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns every machine and blocks until all handshakes complete (Up
  /// fired per machine) or a handshake times out — in which case the
  /// already-started machines are torn down and the error names the
  /// machine that failed.
  Result<bool> start();

  /// One supervision step: reap exits (Down), respawn machines whose
  /// backoff elapsed, complete handshakes of respawned machines (Up).
  /// Call at a few hundred Hz or less from the owner's loop.
  void poll();

  /// Graceful fleet shutdown: SIGTERM everyone, wait up to
  /// `drain_timeout_ms` for clean exits, SIGKILL stragglers. Restart
  /// logic is disabled from the first call.
  void stop(int drain_timeout_ms = 8000);

  /// Drill / probe-suite controls. The id overload is what other
  /// threads use — an index stays valid across restarts, but resolving
  /// id -> slot under the supervisor's own lock keeps the lookup and
  /// the kill atomic with respect to poll().
  bool signal_machine(std::size_t index, int sig);
  bool signal_machine(const std::string& id, int sig);

  /// One machine's state, copied out under the supervisor lock — the
  /// only way to observe the fleet from another thread while poll()
  /// may be respawning machines.
  struct MachineView {
    std::size_t index = 0;
    std::string id;
    MachineProcess::State state = MachineProcess::State::Idle;
    std::optional<net::ReadyLine> ready;
    pid_t pid = -1;
    std::size_t restarts = 0;
  };
  std::vector<MachineView> snapshot() const;

  std::size_t size() const noexcept { return slots_.size(); }
  /// Direct slot access for single-threaded owners (tests, post-stop
  /// reporting). NOT safe while another thread runs poll(): a respawn
  /// move-assigns the MachineProcess this reference aliases — use
  /// snapshot() from anywhere concurrent.
  const MachineProcess& machine(std::size_t index) const { return slots_.at(index).proc; }
  std::size_t restarts(std::size_t index) const;
  /// Machines currently in the Ready state.
  std::size_t up_count() const;
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    obs::register_series(reg, base, stats_);
  }

 private:
  struct Slot {
    MachineProcess proc;
    std::size_t restarts = 0;
    std::int64_t backoff_ms = 0;
    std::int64_t respawn_at_ms = -1;  // >= 0: waiting to respawn
    bool announced_up = false;        // Up fired for the current incarnation
  };

  static std::int64_t now_ms();
  SpawnSpec spec_for(std::size_t index) const;
  void emit(const Event& event);

  SupervisorConfig config_;
  EventFn on_event_;
  /// Guards slots_ and stopping_. Held only for state mutation and
  /// copies — never while emitting events (the callback may re-enter
  /// through signal_machine) and never across the event callback.
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  bool stopping_ = false;
  SupervisorStats stats_;
};

}  // namespace akadns::fleet

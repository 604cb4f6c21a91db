// The live export transport: a minimal HTTP/1.1 endpoint serving
//
//   GET /metrics  -> 200, Prometheus text exposition of a fresh snapshot
//   GET /healthz  -> 200 "ok" when the ready callback says so,
//                    503 "unready" otherwise (drained workers, secondary
//                    not yet synced)
//
// plus the matching one-shot http_get client (loadgen --stats-url,
// akadns-scrape, CI smoke). Scrapes are rare (≤10 Hz) and snapshots are
// relaxed-atomic reads, so one accept thread handling connections
// serially is deliberate: no pool, no perturbation of the workers. One
// 1 s deadline bounds each whole request read, so a slow or trickling
// peer delays the next scrape by at most that.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/registry.hpp"

namespace akadns::obs {

class StatsServer {
 public:
  using SnapshotFn = std::function<MetricsSnapshot()>;
  using ReadyFn = std::function<bool()>;

  /// `snapshot_fn` runs per /metrics request on the server thread;
  /// `ready_fn` (may be empty = always ready) per /healthz request.
  StatsServer(SnapshotFn snapshot_fn, ReadyFn ready_fn = {});
  ~StatsServer();
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept
  /// thread. Returns false with `*error` set on bind/listen failure.
  bool start(std::uint16_t port, std::string* error = nullptr);
  void stop();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (after start() with port 0).
  std::uint16_t port() const noexcept { return port_; }

 private:
  void serve_loop();
  void handle_conn(int fd);

  SnapshotFn snapshot_fn_;
  ReadyFn ready_fn_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Blocking one-shot GET of `http://host:port/path`, bounded as a whole
/// by `timeout_ms`. Returns false with `*error` set on connect/IO/parse
/// failure or when the deadline passes (status != 200 is a *successful*
/// fetch — the caller inspects `status`).
bool http_get(const std::string& url, HttpResponse* out, std::string* error,
              int timeout_ms = 5000);

}  // namespace akadns::obs

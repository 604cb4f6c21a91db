// The one DNS stub client: a connected, nonblocking UDP or TCP
// conversation with one server. The secondary's SOA probes and zone
// transfers (zone_sync), the fleet's end-to-end probes (§4.2.1),
// akadns-serve's NOTIFY and the socket tests all ask through it, under
// one set of rules:
//   * Every wait polls the socket, and the stop fd when one is given,
//     against the caller's deadline: an instant, not a per-syscall
//     timeout, so a peer trickling one byte at a time cannot stretch a
//     call past it. A read always waits first, so past its deadline
//     receive() fails even when bytes are queued (a TCP frame already
//     reassembled is still returned).
//   * A readable stop fd (an eventfd its owner writes on shutdown) ends
//     any wait.
//   * A failure names its cause; the errno text rides in its message.
//   * ask() returns the first reply that carries the query's
//     transaction id and skips any other (a late answer to an earlier
//     query).
// TCP messages carry the RFC 1035 §4.2.2 length prefix.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ip.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/socket.hpp"
#include "net/tcp_framing.hpp"

namespace akadns::net {

enum class Transport : std::uint8_t { Udp, Tcp };

/// Why a call failed. Closed: the server closed the TCP connection (the
/// message says whether mid-frame). BadFrame: a zero-length TCP frame.
enum class StubFailure : std::uint8_t { None, Timeout, Stopped, Closed, BadFrame, Io };

/// A call's outcome. `reply` (receive, await_reply, ask) stays valid
/// until the next call on the client.
struct StubResult {
  StubFailure failure = StubFailure::None;
  std::string error;
  std::span<const std::uint8_t> reply;
  explicit operator bool() const noexcept { return failure == StubFailure::None; }
};

class StubClient {
 public:
  using Deadline = std::chrono::steady_clock::time_point;

  static Deadline deadline_in(Duration d) noexcept {
    return std::chrono::steady_clock::now() + std::chrono::nanoseconds(d.count_nanos());
  }

  /// A client connected to `server`; a TCP handshake is waited for
  /// under `deadline` and `stop_fd` (-1: none).
  static Result<StubClient> open(const Endpoint& server, Transport transport,
                                 Deadline deadline, int stop_fd = -1);
  /// Wraps a socket the caller connected itself, with socket options of
  /// its own; it is made nonblocking.
  StubClient(FdHandle connected, Transport transport, int stop_fd = -1);

  int fd() const noexcept { return fd_.get(); }

  /// Sends one message (framed on TCP).
  StubResult send(std::span<const std::uint8_t> message, Deadline deadline);
  /// The next datagram or frame.
  StubResult receive(Deadline deadline);
  /// The next datagram or frame that carries transaction id `id`.
  StubResult await_reply(std::uint16_t id, Deadline deadline);
  /// send(query), then await_reply(the id in its first two bytes).
  StubResult ask(std::span<const std::uint8_t> query, Deadline deadline);

 private:
  /// Polls the socket for `events`, and the stop fd, until either is
  /// ready or the deadline passes.
  StubResult wait(short events, Deadline deadline);

  FdHandle fd_;
  Transport transport_;
  int stop_fd_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> buffer_;
};

}  // namespace akadns::net

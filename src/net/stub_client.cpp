#include "net/stub_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

namespace akadns::net {

namespace {

/// Holds any datagram; TCP reads take chunks of this size.
constexpr std::size_t kBufferBytes = 64 * 1024;

StubResult failed(StubFailure failure, std::string error) {
  return StubResult{failure, std::move(error), {}};
}

std::uint16_t transaction_id(std::span<const std::uint8_t> message) noexcept {
  return static_cast<std::uint16_t>((message[0] << 8) | message[1]);
}

}  // namespace

Result<StubClient> StubClient::open(const Endpoint& server, Transport transport,
                                    Deadline deadline, int stop_fd) {
  sockaddr_storage ss{};
  const socklen_t len = sockaddr_from_endpoint(server, ss);
  const int type = transport == Transport::Udp ? SOCK_DGRAM : SOCK_STREAM;
  FdHandle fd(::socket(ss.ss_family, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Error{errno_message("socket")};
  // connect() scopes recv() to the server: datagrams from any other
  // source never reach the caller.
  const int rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&ss), len);
  if (rc != 0 && errno != EINPROGRESS) return Error{errno_message("connect")};
  StubClient client(std::move(fd), transport, stop_fd);
  if (rc == 0) return client;
  // The TCP handshake is in flight: writable means done, SO_ERROR says how.
  const StubResult ready = client.wait(POLLOUT, deadline);
  if (!ready) return Error{"connect " + ready.error};
  int err = 0;
  socklen_t err_len = sizeof(err);
  ::getsockopt(client.fd(), SOL_SOCKET, SO_ERROR, &err, &err_len);
  if (err != 0) return Error{std::string("connect: ") + std::strerror(err)};
  return client;
}

StubClient::StubClient(FdHandle connected, Transport transport, int stop_fd)
    : fd_(std::move(connected)), transport_(transport), stop_fd_(stop_fd), buffer_(kBufferBytes) {
  const int flags = ::fcntl(fd_.get(), F_GETFL);
  if (flags >= 0) ::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK);
}

StubResult StubClient::wait(short events, Deadline deadline) {
  while (true) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= Deadline::duration::zero()) return failed(StubFailure::Timeout, "timed out");
    // Rounded up: a poll that returns before the deadline only loops.
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
    // A negative fd (no stop fd) is ignored by poll().
    pollfd fds[2] = {{fd_.get(), events, 0}, {stop_fd_, POLLIN, 0}};
    const int n = ::poll(fds, 2, static_cast<int>(std::min<std::int64_t>(
                                     ms, std::numeric_limits<int>::max())));
    if (n < 0 && errno != EINTR) return failed(StubFailure::Io, errno_message("poll"));
    if (n <= 0) continue;
    if (fds[1].revents != 0) return failed(StubFailure::Stopped, "stopped");
    if (fds[0].revents != 0) return {};
  }
}

StubResult StubClient::send(std::span<const std::uint8_t> message, Deadline deadline) {
  std::vector<std::uint8_t> framed;
  std::span<const std::uint8_t> rest = message;
  if (transport_ == Transport::Tcp) {
    const auto prefix = frame_prefix(message.size());
    framed.assign(prefix.begin(), prefix.end());
    framed.insert(framed.end(), message.begin(), message.end());
    rest = framed;
  }
  while (true) {
    const ssize_t n = ::send(fd_.get(), rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n >= 0) {
      // A datagram leaves whole; a stream may take the frame in parts.
      rest = rest.subspan(static_cast<std::size_t>(n));
      if (transport_ == Transport::Udp || rest.empty()) return {};
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return failed(StubFailure::Io, errno_message("send"));
    }
    if (StubResult ready = wait(POLLOUT, deadline); !ready) return ready;
  }
}

StubResult StubClient::receive(Deadline deadline) {
  while (true) {
    if (transport_ == Transport::Tcp) {
      if (const auto frame = decoder_.next()) return StubResult{StubFailure::None, {}, *frame};
      // The decoder's cap is the largest length a prefix can carry, so
      // only an empty frame poisons it.
      if (decoder_.poisoned()) return failed(StubFailure::BadFrame, "zero-length frame");
    }
    if (StubResult ready = wait(POLLIN, deadline); !ready) return ready;
    const ssize_t n = ::recv(fd_.get(), buffer_.data(), buffer_.size(), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return failed(StubFailure::Io, errno_message("recv"));
    }
    const std::span<const std::uint8_t> got(buffer_.data(), static_cast<std::size_t>(n));
    if (transport_ == Transport::Udp) return StubResult{StubFailure::None, {}, got};
    if (n == 0) {
      return failed(StubFailure::Closed, decoder_.at_frame_boundary()
                                             ? "connection closed"
                                             : "connection closed mid-frame");
    }
    decoder_.feed(got);
  }
}

StubResult StubClient::await_reply(std::uint16_t id, Deadline deadline) {
  while (true) {
    StubResult got = receive(deadline);
    if (!got || (got.reply.size() >= 2 && transaction_id(got.reply) == id)) return got;
  }
}

StubResult StubClient::ask(std::span<const std::uint8_t> query, Deadline deadline) {
  if (StubResult sent = send(query, deadline); !sent) return sent;
  return await_reply(transaction_id(query), deadline);
}

}  // namespace akadns::net

#include "net/socket.hpp"

#include <arpa/inet.h>
#include <unistd.h>

#include <cstring>

#include <cerrno>

namespace akadns::net {

namespace {

/// Binds `fd` and reads back the kernel-assigned port (ephemeral binds).
Result<std::uint16_t> bind_and_resolve_port(int fd, Ipv4Addr addr, std::uint16_t port) {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(addr.value());
  sin.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)) != 0) {
    return Error{errno_message("bind")};
  }
  socklen_t len = sizeof(sin);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) != 0) {
    return Error{errno_message("getsockname")};
  }
  return static_cast<std::uint16_t>(ntohs(sin.sin_port));
}

bool set_reuseport(int fd) noexcept {
  const int one = 1;
  return ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) == 0;
}

}  // namespace

FdHandle& FdHandle::operator=(FdHandle&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

FdHandle::~FdHandle() { reset(); }

void FdHandle::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string errno_message(const char* what) noexcept {
  return std::string(what) + ": " + std::strerror(errno);
}

Endpoint endpoint_from_sockaddr(const sockaddr_storage& ss) noexcept {
  Endpoint ep;
  if (ss.ss_family == AF_INET) {
    const auto& sin = reinterpret_cast<const sockaddr_in&>(ss);
    ep.addr = Ipv4Addr(ntohl(sin.sin_addr.s_addr));
    ep.port = ntohs(sin.sin_port);
  } else if (ss.ss_family == AF_INET6) {
    const auto& sin6 = reinterpret_cast<const sockaddr_in6&>(ss);
    std::array<std::uint8_t, 16> bytes;
    std::memcpy(bytes.data(), sin6.sin6_addr.s6_addr, 16);
    ep.addr = Ipv6Addr(bytes);
    ep.port = ntohs(sin6.sin6_port);
  }
  return ep;
}

socklen_t sockaddr_from_endpoint(const Endpoint& ep, sockaddr_storage& ss) noexcept {
  std::memset(&ss, 0, sizeof(ss));
  if (ep.addr.is_v4()) {
    auto& sin = reinterpret_cast<sockaddr_in&>(ss);
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(ep.addr.v4().value());
    sin.sin_port = htons(ep.port);
    return sizeof(sockaddr_in);
  }
  auto& sin6 = reinterpret_cast<sockaddr_in6&>(ss);
  sin6.sin6_family = AF_INET6;
  std::memcpy(sin6.sin6_addr.s6_addr, ep.addr.v6().bytes().data(), 16);
  sin6.sin6_port = htons(ep.port);
  return sizeof(sockaddr_in6);
}

Result<UdpSocket> UdpSocket::open(Ipv4Addr addr, std::uint16_t port, int rcvbuf, int sndbuf) {
  FdHandle fd(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Error{errno_message("socket(udp)")};
  // Linux may give a port-0 bind of an SO_REUSEPORT socket a port another
  // such socket of the same user holds, and the two then take each
  // other's datagrams. So a port-0 bind joins SO_REUSEPORT only after it
  // has a port of its own (later sockets can still join that port).
  if (port != 0 && !set_reuseport(fd.get())) {
    return Error{errno_message("setsockopt(SO_REUSEPORT)")};
  }
  // Buffer sizing is advisory: the kernel clamps to rmem_max/wmem_max.
  // A loadgen burst of small datagrams overruns the ~200 KiB default
  // easily, so both ends ask for more.
  if (rcvbuf > 0) ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  if (sndbuf > 0) ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  auto bound = bind_and_resolve_port(fd.get(), addr, port);
  if (!bound) return Error{bound.error()};
  if (port == 0 && !set_reuseport(fd.get())) {
    return Error{errno_message("setsockopt(SO_REUSEPORT)")};
  }
  UdpSocket socket;
  socket.fd_ = std::move(fd);
  socket.port_ = bound.value();
  return socket;
}

Result<TcpListener> TcpListener::open(Ipv4Addr addr, std::uint16_t port, int backlog) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Error{errno_message("socket(tcp)")};
  if (!set_reuseport(fd.get())) return Error{errno_message("setsockopt(SO_REUSEPORT)")};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  auto bound = bind_and_resolve_port(fd.get(), addr, port);
  if (!bound) return Error{bound.error()};
  if (::listen(fd.get(), backlog) != 0) return Error{errno_message("listen")};
  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = bound.value();
  return listener;
}

FdHandle TcpListener::accept(sockaddr_storage& peer) noexcept {
  socklen_t len = sizeof(peer);
  const int fd = ::accept4(fd_.get(), reinterpret_cast<sockaddr*>(&peer), &len,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  return FdHandle(fd);
}

}  // namespace akadns::net

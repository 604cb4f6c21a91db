#include "obs/stats_http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "obs/exposition.hpp"

namespace akadns::obs {

namespace {

/// Budget for reading one whole request, however its bytes trickle in.
constexpr auto kRequestDeadline = std::chrono::seconds(1);

/// Waits until `fd` is ready for `events`; false once `deadline` passes
/// (or on a poll error).
bool wait_ready(int fd, short events, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc > 0) return true;
    if (rc < 0 && errno != EINTR) return false;
  }
}

/// http_get's conversation on a nonblocking socket: connect, send `req`,
/// read to EOF into `resp`, each wait bounded by `deadline`. Returns ""
/// or what failed.
std::string exchange(int fd, const sockaddr_in& addr, std::string_view req,
                     std::chrono::steady_clock::time_point deadline, std::string& resp) {
  const auto failed = [](const char* what) { return std::string(what) + std::strerror(errno); };
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return failed("connect: ");
    if (!wait_ready(fd, POLLOUT, deadline)) return "connect timed out";
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) return std::string("connect: ") + std::strerror(err);
  }
  for (std::size_t off = 0; off < req.size();) {
    if (!wait_ready(fd, POLLOUT, deadline)) return "send timed out";
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) return failed("send: ");
    off += static_cast<std::size_t>(n);
  }
  char buf[4096];
  for (;;) {
    if (!wait_ready(fd, POLLIN, deadline)) return "read timed out";
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) return "";
    resp.append(buf, static_cast<std::size_t>(n));
  }
}

void send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; a scrape is best-effort
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string http_response(int status, std::string_view reason,
                          std::string_view content_type, std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + std::string(reason) +
                    "\r\nContent-Type: " + std::string(content_type) +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

StatsServer::StatsServer(SnapshotFn snapshot_fn, ReadyFn ready_fn)
    : snapshot_fn_(std::move(snapshot_fn)), ready_fn_(std::move(ready_fn)) {}

StatsServer::~StatsServer() { stop(); }

bool StatsServer::start(std::uint16_t port, std::string* error) {
  const auto set_error = [&](const std::string& what) {
    if (error) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return set_error("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return set_error("bind");
  }
  if (::listen(listen_fd_, 16) != 0) return set_error("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return set_error("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void StatsServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void StatsServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);  // 100ms tick to observe stop_
    if (rc <= 0) continue;
    const int conn = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) continue;
    handle_conn(conn);
    ::close(conn);
  }
}

void StatsServer::handle_conn(int fd) {
  // Read until the header terminator; requests are tiny GETs. One
  // deadline bounds the whole read, so a peer trickling bytes holds the
  // serial listener for at most kRequestDeadline and then gets a 400.
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  bool timed_out = false;
  std::string req;
  char buf[1024];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 8192) {
    if (!wait_ready(fd, POLLIN, deadline)) {
      timed_out = true;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    req.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t sp1 = req.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : req.find(' ', sp1 + 1);
  if (timed_out || sp2 == std::string::npos || req.substr(0, sp1) != "GET") {
    send_all(fd, http_response(400, "Bad Request", "text/plain", "bad request\n"));
    return;
  }
  const std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  if (path == "/metrics") {
    const std::string body = render_prometheus(snapshot_fn_());
    send_all(fd, http_response(200, "OK", "text/plain; version=0.0.4", body));
  } else if (path == "/metrics.json") {
    const std::string body = render_json(snapshot_fn_());
    send_all(fd, http_response(200, "OK", "application/json", body));
  } else if (path == "/healthz") {
    const bool ready = !ready_fn_ || ready_fn_();
    if (ready) {
      send_all(fd, http_response(200, "OK", "text/plain", "ok\n"));
    } else {
      send_all(fd,
               http_response(503, "Service Unavailable", "text/plain", "unready\n"));
    }
  } else {
    send_all(fd, http_response(404, "Not Found", "text/plain", "not found\n"));
  }
}

// ---------------------------------------------------------------------------
// Client

bool http_get(const std::string& url, HttpResponse* out, std::string* error,
              int timeout_ms) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = what;
    return false;
  };
  constexpr std::string_view kScheme = "http://";
  if (url.substr(0, kScheme.size()) != kScheme) {
    return fail("unsupported url (need http://): " + url);
  }
  const std::string rest = url.substr(kScheme.size());
  const std::size_t slash = rest.find('/');
  const std::string hostport = slash == std::string::npos ? rest : rest.substr(0, slash);
  const std::string path = slash == std::string::npos ? "/" : rest.substr(slash);
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) return fail("url needs an explicit port: " + url);
  const std::string host = hostport.substr(0, colon);
  const int port = std::atoi(hostport.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return fail("bad port in url: " + url);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string target = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    return fail("bad host (need an IPv4 literal or localhost): " + host);
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + hostport +
                          "\r\nConnection: close\r\n\r\n";
  // One deadline bounds the whole request: connect, send and every read
  // wait only for what is left of it, so a peer trickling its body
  // cannot hold the caller past `timeout_ms`.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  std::string resp;
  const std::string io_error = exchange(fd, addr, req, deadline, resp);
  ::close(fd);
  if (!io_error.empty()) return fail(hostport + ": " + io_error);
  const std::size_t hdr_end = resp.find("\r\n\r\n");
  if (hdr_end == std::string::npos) return fail("truncated http response");
  const std::size_t sp = resp.find(' ');
  if (sp == std::string::npos || sp + 4 > resp.size()) return fail("bad status line");
  out->status = std::atoi(resp.c_str() + sp + 1);
  out->body = resp.substr(hdr_end + 4);
  return true;
}

}  // namespace akadns::obs

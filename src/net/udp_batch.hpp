// recvmmsg/sendmmsg batching for the UDP hot path.
//
// One syscall moves up to `batch` datagrams in each direction — the
// batching discipline ZDNS demonstrates is what separates a
// syscall-per-packet toy from a server that saturates hardware. All
// storage (receive buffers, response buffers, mmsghdr/iovec/sockaddr
// arrays) is allocated once at construction and reused for every batch,
// so batching itself allocates nothing per query. Neither does the
// query path (a short qname decodes into the name's inline buffer),
// inline or through the defense queues once their rings have grown to
// their working depth.
#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <span>
#include <vector>

namespace akadns::server {
struct ResponseBatch;
}

namespace akadns::net {

/// A reusable receive+reply batch bound to one worker's UDP socket.
/// Usage per cycle:
///   int n = batch.recv(fd);
///   for i in [0, n): build a reply in batch.response(i) (leave empty
///     to drop), reading the query from batch.packet(i) / source(i);
///   batch.send(fd) transmits every non-empty response to its source.
class UdpBatch {
 public:
  /// `batch` datagrams per syscall; `buffer_size` bytes of receive room
  /// per slot (a DNS query never legitimately approaches this; larger
  /// datagrams are truncated by the kernel and dropped by the decoder).
  explicit UdpBatch(std::size_t batch = 32, std::size_t buffer_size = 4096);

  std::size_t capacity() const noexcept { return rx_buffers_.size(); }

  /// Receives up to capacity() datagrams. Returns the count (0 on
  /// EAGAIN/EINTR — nothing readable). Negative on hard socket error.
  int recv(int fd) noexcept;

  /// Received bytes of slot `i` (valid until the next recv()).
  std::span<const std::uint8_t> packet(std::size_t i) const noexcept {
    return {rx_buffers_[i].data(), rx_lengths_[i]};
  }
  const sockaddr_storage& source(std::size_t i) const noexcept { return rx_addrs_[i]; }

  /// The reply buffer for slot `i`; cleared by recv(). Capacity is
  /// retained across batches (zero steady-state allocation).
  std::vector<std::uint8_t>& response(std::size_t i) noexcept { return responses_[i]; }

  /// Sends every non-empty response back to its slot's source address,
  /// retrying short sendmmsg returns until the batch is flushed (briefly
  /// polling on EAGAIN — on loopback with a sized sndbuf this is rare).
  /// Returns datagrams actually handed to the kernel.
  std::size_t send(int fd) noexcept;

  /// Like send(fd), for responses to queries whose receive batch is gone
  /// (the penalty-queue path), each to its recorded destination. Entries
  /// routed to a TCP connection are skipped.
  std::size_t send(int fd, const server::ResponseBatch& responses) noexcept;

 private:
  void fill_tx(std::size_t i, std::span<const std::uint8_t> wire, sockaddr_storage& addr,
               socklen_t addrlen) noexcept;
  /// The one sendmmsg retry loop, over tx slots [0, count).
  std::size_t send_tx(int fd, std::size_t count) noexcept;

  std::vector<std::vector<std::uint8_t>> rx_buffers_;
  std::vector<std::size_t> rx_lengths_;
  std::vector<sockaddr_storage> rx_addrs_;
  std::vector<std::vector<std::uint8_t>> responses_;
  // Scatter/gather plumbing reused across syscalls.
  std::vector<mmsghdr> rx_hdrs_;
  std::vector<iovec> rx_iovecs_;
  std::vector<mmsghdr> tx_hdrs_;
  std::vector<iovec> tx_iovecs_;
  std::vector<sockaddr_storage> tx_addrs_;  // deferred responses' destinations
  std::size_t received_ = 0;
};

}  // namespace akadns::net

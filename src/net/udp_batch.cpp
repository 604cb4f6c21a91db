#include "net/udp_batch.hpp"

#include <netinet/in.h>
#include <poll.h>

#include <cerrno>
#include <cstring>

#include "net/socket.hpp"
#include "server/lane_core.hpp"

namespace akadns::net {

UdpBatch::UdpBatch(std::size_t batch, std::size_t buffer_size) {
  rx_buffers_.resize(batch);
  for (auto& buf : rx_buffers_) buf.resize(buffer_size);
  rx_lengths_.resize(batch, 0);
  rx_addrs_.resize(batch);
  responses_.resize(batch);
  rx_hdrs_.resize(batch);
  rx_iovecs_.resize(batch);
  tx_hdrs_.resize(batch);
  tx_iovecs_.resize(batch);
  tx_addrs_.resize(batch);
  // The receive-side headers are fully static: each slot always reads
  // into the same buffer and address slot.
  for (std::size_t i = 0; i < batch; ++i) {
    rx_iovecs_[i].iov_base = rx_buffers_[i].data();
    rx_iovecs_[i].iov_len = rx_buffers_[i].size();
    std::memset(&rx_hdrs_[i], 0, sizeof(mmsghdr));
    rx_hdrs_[i].msg_hdr.msg_iov = &rx_iovecs_[i];
    rx_hdrs_[i].msg_hdr.msg_iovlen = 1;
    rx_hdrs_[i].msg_hdr.msg_name = &rx_addrs_[i];
    rx_hdrs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_storage);
  }
}

int UdpBatch::recv(int fd) noexcept {
  // recvmmsg overwrites msg_namelen per message; restore it every cycle.
  for (std::size_t i = 0; i < rx_hdrs_.size(); ++i) {
    rx_hdrs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_storage);
    // iov_len too: the kernel does not modify it, but keep the invariant
    // explicit in case a caller shrank a buffer.
    rx_iovecs_[i].iov_len = rx_buffers_[i].size();
  }
  int n;
  do {
    n = ::recvmmsg(fd, rx_hdrs_.data(), static_cast<unsigned>(rx_hdrs_.size()), 0, nullptr);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    received_ = 0;
    return (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
  }
  received_ = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < received_; ++i) {
    rx_lengths_[i] = rx_hdrs_[i].msg_len;
    responses_[i].clear();
  }
  return n;
}

std::size_t UdpBatch::send(int fd) noexcept {
  // Pack the non-empty responses into a dense sendmmsg array; each reply
  // goes back to the address its query arrived from.
  std::size_t count = 0;
  for (std::size_t i = 0; i < received_; ++i) {
    if (responses_[i].empty()) continue;
    fill_tx(count++, responses_[i], rx_addrs_[i],
            rx_addrs_[i].ss_family == AF_INET6 ? sizeof(sockaddr_in6) : sizeof(sockaddr_in));
  }
  return send_tx(fd, count);
}

std::size_t UdpBatch::send(int fd, const server::ResponseBatch& responses) noexcept {
  std::size_t sent = 0;
  std::size_t count = 0;
  for (const auto& entry : responses.entries) {
    if (entry.route.tcp()) continue;  // framed onto its connection instead
    fill_tx(count, responses.wire(entry), tx_addrs_[count],
            sockaddr_from_endpoint(entry.dst, tx_addrs_[count]));
    if (++count == tx_hdrs_.size()) {
      sent += send_tx(fd, count);
      count = 0;
    }
  }
  return sent + send_tx(fd, count);
}

void UdpBatch::fill_tx(std::size_t i, std::span<const std::uint8_t> wire, sockaddr_storage& addr,
                       socklen_t addrlen) noexcept {
  tx_iovecs_[i].iov_base = const_cast<std::uint8_t*>(wire.data());  // sendmmsg only reads it
  tx_iovecs_[i].iov_len = wire.size();
  std::memset(&tx_hdrs_[i], 0, sizeof(mmsghdr));
  tx_hdrs_[i].msg_hdr.msg_iov = &tx_iovecs_[i];
  tx_hdrs_[i].msg_hdr.msg_iovlen = 1;
  tx_hdrs_[i].msg_hdr.msg_name = &addr;
  tx_hdrs_[i].msg_hdr.msg_namelen = addrlen;
}

std::size_t UdpBatch::send_tx(int fd, std::size_t count) noexcept {
  std::size_t sent = 0;
  while (sent < count) {
    const int n = ::sendmmsg(fd, tx_hdrs_.data() + sent, static_cast<unsigned>(count - sent), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Transmit queue full: wait for writability instead of spinning.
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 10);
        continue;
      }
      break;  // hard error: drop the rest of the batch (counted by caller)
    }
    sent += static_cast<std::size_t>(n);
  }
  return sent;
}

}  // namespace akadns::net

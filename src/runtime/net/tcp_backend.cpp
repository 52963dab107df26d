#include "runtime/net/tcp_backend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

namespace dsteiner::runtime::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Writes the whole buffer or throws; short writes are retried.
void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("tcp send");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Reads exactly `len` bytes. Returns false on clean EOF at a frame boundary
/// (len bytes pending = 0 read so far); mid-read EOF is a wire error. A
/// connection reset counts as EOF: the peer has left either way.
bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, data + got, len - got, MSG_WAITALL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != ECONNRESET) throw_errno("tcp recv");
      n = 0;
    }
    if (n == 0) {
      if (got == 0) return false;
      throw wire_error("peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// Sends one frame (header + payload) as a single buffer so small frames
/// (markers, votes) leave in one segment under TCP_NODELAY.
void send_frame(int fd, const frame& f) {
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  write_all(fd, bytes.data(), bytes.size());
}

/// Reads one whole frame; returns false on clean EOF before the header.
bool read_frame(int fd, frame& out) {
  std::uint8_t header_bytes[k_header_bytes];
  if (!read_exact(fd, header_bytes, k_header_bytes)) return false;
  const frame_header header = decode_header(header_bytes);
  out.type = header.type;
  out.payload.resize(header.payload_bytes);
  if (header.payload_bytes > 0 &&
      !read_exact(fd, out.payload.data(), header.payload_bytes)) {
    throw wire_error("peer closed mid-frame");
  }
  return true;
}

}  // namespace

tcp_backend::tcp_backend(const tcp_backend_config& config) : config_(config) {
  if (config.world <= 0 || config.rank < 0 || config.rank >= config.world) {
    throw std::invalid_argument("tcp_backend: rank/world out of range");
  }
  peer_fd_.assign(static_cast<std::size_t>(config.world), -1);
  if (config.world == 1) return;  // degenerate: no peers, nothing to connect

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config.connect_timeout_ms);
  int listen_fd = -1;
  try {
    // Listen first so every higher rank's dial finds us without a race.
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) throw_errno("tcp socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in self = loopback_addr(
        static_cast<std::uint16_t>(config.base_port + config.rank));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&self), sizeof(self)) <
        0) {
      throw_errno("tcp bind port " +
                  std::to_string(config.base_port + config.rank));
    }
    if (::listen(listen_fd, config.world) < 0) throw_errno("tcp listen");

    // Dial every lower rank, retrying while its listener comes up.
    for (int peer = 0; peer < config.rank; ++peer) {
      for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) throw_errno("tcp socket");
        sockaddr_in addr = loopback_addr(
            static_cast<std::uint16_t>(config.base_port + peer));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0) {
          set_nodelay(fd);
          send_frame(fd, encode_hello(config.rank, config.world));
          peer_fd_[static_cast<std::size_t>(peer)] = fd;
          break;
        }
        ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline) {
          throw std::runtime_error("tcp connect to rank " +
                                   std::to_string(peer) + " timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }

    // Accept one connection from every higher rank; the hello frame tells us
    // which rank dialled (accept order is scheduling-dependent).
    for (int pending = config.world - 1 - config.rank; pending > 0;
         --pending) {
      pollfd p{listen_fd, POLLIN, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0 ||
          ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        throw std::runtime_error("tcp accept timed out waiting for " +
                                 std::to_string(pending) + " peer(s)");
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) throw_errno("tcp accept");
      set_nodelay(fd);
      frame hello;
      if (!read_frame(fd, hello)) {
        ::close(fd);
        throw wire_error("peer closed before hello");
      }
      int peer_rank = 0;
      int peer_world = 0;
      decode_hello(hello, peer_rank, peer_world);
      if (peer_world != config.world || peer_rank <= config.rank ||
          peer_fd_[static_cast<std::size_t>(peer_rank)] != -1) {
        ::close(fd);
        throw wire_error("hello from unexpected rank " +
                         std::to_string(peer_rank));
      }
      peer_fd_[static_cast<std::size_t>(peer_rank)] = fd;
    }

    ::close(listen_fd);
  } catch (...) {
    if (listen_fd >= 0) ::close(listen_fd);
    close_all();
    throw;
  }
}

tcp_backend::~tcp_backend() { close_all(); }

int tcp_backend::fd_of(int peer) const {
  if (peer < 0 || peer >= config_.world || peer == config_.rank) {
    throw std::invalid_argument("tcp_backend: bad peer rank");
  }
  return peer_fd_[static_cast<std::size_t>(peer)];
}

void tcp_backend::send(int to, const frame& f) {
  const int fd = fd_of(to);
  if (closed_ || fd < 0) throw wire_error("tcp mesh closed");
  // Non-blocking writes with receive draining while stalled: two ranks
  // flushing large superstep batches at each other would otherwise deadlock
  // once both kernel send buffers fill (neither reads until its write
  // completes). When our write would block we read whatever peers have
  // ready into rx_queue_, which frees their send buffers and ours.
  const auto peer_left = [to] {
    return wire_error("tcp send: rank " + std::to_string(to) +
                      " left the mesh");
  };
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) throw peer_left();
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      throw_errno("tcp send");
    }
    // Crucially this drains the destination peer too: when both sides of a
    // link flush at each other, reading the peer's frames is the only thing
    // that empties its send buffer and lets it get back to reading ours.
    drain_ready_peers();
    if (fd_of(to) < 0) throw peer_left();
    pollfd p{fd, POLLOUT, 0};
    if (::poll(&p, 1, 50) < 0 && errno != EINTR) throw_errno("tcp poll");
  }
  stats_.bytes_sent += wire_bytes(f);
  ++stats_.frames_sent;
}

/// Reads one frame from every peer that has data pending, without blocking
/// on peers that do not. A peer that is POLLIN-ready has at least started a
/// frame; the blocking remainder-read completes because that peer's data is
/// already in flight towards us.
void tcp_backend::drain_ready_peers() {
  std::vector<pollfd> fds;
  std::vector<int> ranks;
  for (std::size_t i = 0; i < peer_fd_.size(); ++i) {
    if (peer_fd_[i] >= 0) {
      fds.push_back(pollfd{peer_fd_[i], POLLIN, 0});
      ranks.push_back(static_cast<int>(i));
    }
  }
  if (fds.empty()) return;
  if (::poll(fds.data(), fds.size(), 0) <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    frame f;
    if (read_frame(fds[i].fd, f)) {
      stats_.bytes_received += wire_bytes(f);
      ++stats_.frames_received;
    } else {  // clean EOF: queued as a shutdown frame, as recv() reports it
      ::close(fds[i].fd);
      peer_fd_[static_cast<std::size_t>(ranks[i])] = -1;
      f = frame{frame_type::shutdown, {}};
    }
    rx_queue_.emplace_back(ranks[i], std::move(f));
  }
}

bool tcp_backend::recv(int& from, frame& out) {
  if (!rx_queue_.empty()) {
    from = rx_queue_.front().first;
    out = std::move(rx_queue_.front().second);
    rx_queue_.pop_front();
    return true;
  }
  if (closed_) return false;
  std::vector<pollfd> fds;
  std::vector<int> ranks;
  fds.reserve(peer_fd_.size());
  for (std::size_t i = 0; i < peer_fd_.size(); ++i) {
    if (peer_fd_[i] >= 0) {
      fds.push_back(pollfd{peer_fd_[i], POLLIN, 0});
      ranks.push_back(static_cast<int>(i));
    }
  }
  while (!fds.empty()) {
    const int n = ::poll(fds.data(), fds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("tcp poll");
    }
    // Round-robin over ready peers so one busy stream cannot starve others.
    const std::size_t count = fds.size();
    for (std::size_t step = 0; step < count; ++step) {
      const std::size_t i =
          (static_cast<std::size_t>(next_peer_) + step) % count;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      next_peer_ = static_cast<int>((i + 1) % count);
      from = ranks[i];
      if (read_frame(fds[i].fd, out)) {
        stats_.bytes_received += wire_bytes(out);
        ++stats_.frames_received;
      } else {
        // Clean EOF: report it once as a shutdown frame, then stop polling
        // this peer.
        ::close(fds[i].fd);
        peer_fd_[static_cast<std::size_t>(from)] = -1;
        out = frame{frame_type::shutdown, {}};
      }
      return true;
    }
  }
  return false;  // every peer has disconnected
}

void tcp_backend::close() {
  closed_ = true;
  close_all();
}

void tcp_backend::close_all() noexcept {
  for (int& fd : peer_fd_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

}  // namespace dsteiner::runtime::net

// TCP comm_backend: each rank is its own process, the mesh is persistent
// localhost (or LAN) sockets.
//
// Mesh establishment is deadlock-free by construction: every rank first
// binds and listens on `base_port + rank`, then dials every *lower* rank
// (retrying while the peer's listener comes up), then accepts one connection
// from every *higher* rank. Rank 0 dials nobody; rank world-1 accepts
// nobody-but-dials-everyone; no cycle of mutual waits exists. The first
// frame on every connection is a `hello{rank, world}` handshake — it
// identifies the dialling peer (accept order is nondeterministic) and
// rejects world-size mismatches before any algorithm traffic flows.
//
// Frames are length-prefixed (frame.hpp) over TCP_NODELAY streams; sends are
// full writes, receives read exactly one frame (header, then payload) from a
// poll()-selected peer, with round-robin fairness across ready peers so one
// chatty neighbour cannot starve the vote from another. Decoding enforces
// the magic/size bounds, so a desynchronised or malicious stream fails the
// solve instead of corrupting state. A peer whose connection ends (EOF or
// reset) is reported once as a frame_type::shutdown frame from it, after its
// last frame: a rank waiting on that peer fails with wire_error instead of
// polling the survivors for ever, while a peer that finished and exited
// first costs nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "runtime/net/comm_backend.hpp"

namespace dsteiner::runtime::net {

struct tcp_backend_config {
  int rank = 0;
  int world = 2;
  /// Rank r listens on base_port + r. Every process of one solve must agree.
  std::uint16_t base_port = 29870;
  /// How long to keep re-dialling a lower rank's listener before giving up
  /// (covers process launch skew), and the accept deadline for higher ranks.
  int connect_timeout_ms = 15000;
};

class tcp_backend final : public comm_backend {
 public:
  /// Blocks until the full mesh is connected and handshaken; throws
  /// std::runtime_error (socket failures) or wire_error (handshake) on
  /// failure, closing anything half-open.
  explicit tcp_backend(const tcp_backend_config& config);
  ~tcp_backend() override;

  tcp_backend(const tcp_backend&) = delete;
  tcp_backend& operator=(const tcp_backend&) = delete;

  [[nodiscard]] int rank() const noexcept override { return config_.rank; }
  [[nodiscard]] int world_size() const noexcept override {
    return config_.world;
  }

  void send(int to, const frame& f) override;
  bool recv(int& from, frame& out) override;
  [[nodiscard]] net_stats stats() const noexcept override { return stats_; }
  void close() override;

 private:
  [[nodiscard]] int fd_of(int peer) const;
  void close_all() noexcept;
  void drain_ready_peers();

  tcp_backend_config config_;
  std::vector<int> peer_fd_;  ///< indexed by rank; own slot = -1
  /// Frames read off the wire while a send was waiting for buffer space —
  /// the anti-deadlock path (see send()). recv() serves these first.
  std::deque<std::pair<int, frame>> rx_queue_;
  int next_peer_ = 0;  ///< round-robin start for recv fairness
  bool closed_ = false;
  net_stats stats_;
};

}  // namespace dsteiner::runtime::net

// The transport abstraction behind the distributed solver.
//
// A `comm_backend` is one rank's endpoint into a fully-connected mesh of
// `world_size()` ranks: point-to-point typed frames with per-peer FIFO
// ordering, plus measured traffic counters. Everything above it — superstep
// batching, the termination vote, markers, ghost sync, collectives
// — is built from these two primitives (termination.hpp, superstep_engine.hpp,
// dist_solver.cpp), so the algorithm code is identical over the in-process
// loopback mesh (the default; see loopback_backend.hpp) and real TCP sockets
// between processes (tcp_backend.hpp). That is what makes the
// loopback-vs-TCP bit-identity tests meaningful: only the transport varies.
//
// Ordering contract: frames from one peer arrive in send order; frames from
// different peers interleave arbitrarily. Backends are single-rank objects —
// exactly one thread drives send()/recv() on a given instance.
#pragma once

#include <cstdint>

#include "runtime/net/frame.hpp"

namespace dsteiner::runtime::net {

/// Measured traffic through one rank's endpoint — the real-bytes side of the
/// modelled-vs-measured comparison exported to /metrics. Counted on the
/// wire-format boundary (header + payload per frame), so loopback and TCP
/// report the same numbers for the same solve.
struct net_stats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
};

class comm_backend {
 public:
  virtual ~comm_backend() = default;

  [[nodiscard]] virtual int rank() const noexcept = 0;
  [[nodiscard]] virtual int world_size() const noexcept = 0;

  /// Enqueues one frame to peer `to` (!= rank()). Throws wire_error if the
  /// mesh is closed.
  virtual void send(int to, const frame& f) = 0;

  /// Blocks for the next frame from any peer (per-peer FIFO order). Returns
  /// false when the mesh has been closed and no frames remain. A backend
  /// whose peers can leave one at a time reports each departure as a
  /// frame_type::shutdown frame from that peer.
  virtual bool recv(int& from, frame& out) = 0;

  [[nodiscard]] virtual net_stats stats() const noexcept = 0;

  /// Tears the mesh down; pending and future recv() calls return false and
  /// send() throws. Idempotent.
  virtual void close() = 0;
};

}  // namespace dsteiner::runtime::net

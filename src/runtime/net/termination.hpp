// Superstep plumbing shared by every distributed phase: per-peer frame
// demultiplexing and the one-round distributed termination vote that
// replaces the shared-memory epoch barrier.
//
// `peer_channels` turns the backend's any-source recv() into per-peer FIFO
// queues, so phase code can say "stream frames from rank 3 until its vote"
// while frames from other peers (including early arrivals from ranks already
// in the next superstep) are parked instead of dropped. This is what makes
// the BSP discipline safe over a transport with no global ordering.
//
// `vote_round` folds the same aggregate the threaded engine's
// superstep_barrier carries — outstanding work (sum), cooperative cancel
// (OR), simulated work (max), least pending priority (min) — across ranks
// with one all-to-all exchange per superstep. A rank votes after its last
// data frame of the superstep, so per-peer FIFO lets the vote close that
// peer's data stream: the round hands each peer's data frames to the caller
// until the peer's vote arrives. Termination needs no second round: a vote's
// outstanding count covers the rank's mailbox and the remote visitors it sent
// this superstep, so a folded sum of 0 means every mailbox is empty and
// nothing is in flight, and every rank stops at the same superstep. Votes
// ride the same frame path as data, so their bytes show up in measured
// traffic like everything else.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "runtime/net/comm_backend.hpp"

namespace dsteiner::runtime::net {

/// Per-peer FIFO demux over comm_backend::recv(). One instance per rank,
/// driven by the rank's solve thread.
class peer_channels {
 public:
  explicit peer_channels(comm_backend& net);

  /// Next frame from `from`, blocking; parks frames from other peers.
  /// Throws wire_error if the mesh closes or `from` leaves it first.
  frame next(int from);

  /// Delivers frames from `from` to `fn` until one of type `closing`
  /// arrives, and returns that closing frame.
  frame until_marker(int from, frame_type closing,
                     const std::function<void(frame&)>& fn);

  /// Registers the observability drain for frame_type::telemetry. Telemetry
  /// frames are control-plane: they are diverted here at recv time and never
  /// enter the per-peer queues, so next()/until_marker() — and every phase
  /// decoder behind them — stay oblivious to the telemetry plane. With no
  /// sink registered (every rank but 0) they are discarded.
  void set_telemetry_sink(std::function<void(int from, frame&)> sink) {
    telemetry_sink_ = std::move(sink);
  }

  [[nodiscard]] comm_backend& backend() noexcept { return net_; }

 private:
  comm_backend& net_;
  std::vector<std::deque<frame>> pending_;  ///< parked frames, per peer
  std::function<void(int, frame&)> telemetry_sink_;
};

/// Folded result of one termination round.
struct vote_decision {
  bool stop = false;            ///< nothing pending anywhere, or cancelled
  bool cancel = false;          ///< some rank requested cooperative cancel
  double max_work = 0.0;        ///< largest per-rank simulated work folded
  /// Least pending priority over all ranks (UINT64_MAX: none pending).
  std::uint64_t min_priority = UINT64_MAX;
};

/// One all-to-all termination round closing superstep `mine.superstep`:
/// sends `mine` to every peer, hands each peer's data frames up to its vote
/// to `on_data(from, frame)` (peers in rank order), and folds the votes.
/// Throws wire_error when a peer votes for another superstep.
vote_decision vote_round(peer_channels& chans, const superstep_vote& mine,
                         const std::function<void(int, frame&)>& on_data);

}  // namespace dsteiner::runtime::net

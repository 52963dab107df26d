// Superstep plumbing shared by every distributed phase: per-peer frame
// demultiplexing and the two-phase distributed termination vote that replaces
// the shared-memory epoch barrier.
//
// `peer_channels` turns the backend's any-source recv() into per-peer FIFO
// queues, so phase code can say "give me the next frame from rank 3" or
// "stream frames from rank 3 until its superstep marker" while frames from
// other peers (including early arrivals from ranks already in the next
// superstep) are parked instead of dropped. This is what makes the BSP
// discipline safe over a transport with no global ordering.
//
// `termination_vote` folds the same aggregate the threaded engine's
// superstep_barrier carries — outstanding work (sum), cooperative cancel
// (OR), simulated work (max), least pending priority (min) — across ranks
// with an all-to-all exchange, then confirms an all-idle result with a
// second round. The min-fold is the net engine's frontier-window m (see
// superstep_engine.hpp); it rides the propose round, so the window adds no
// frame and no round trip. The confirmation round is what makes termination
// sound: a rank can vote idle and then receive late visitors sent before the
// vote, so "everyone idle once" is only a hypothesis until everyone
// re-affirms it with no traffic in between. Both rounds ride the same frame
// path as data, so vote bytes show up in measured traffic like everything
// else.
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
  /// Throws wire_error if the mesh closes first.
  frame next(int from);

  /// Like next(), but enforces the expected type (wire_error otherwise).
  frame expect(int from, frame_type type);

  /// Delivers frames from `from` to `fn` until a marker of type
  /// `marker_type` arrives; returns that marker's superstep tag.
  std::uint32_t until_marker(int from, frame_type marker_type,
                             const std::function<void(frame&)>& fn);

  /// Registers the observability drain for frame_type::telemetry. Telemetry
  /// frames are control-plane: they are diverted here at recv time and never
  /// enter the per-peer queues, so next()/expect()/until_marker() — and
  /// every phase decoder behind them — stay oblivious to the telemetry
  /// plane. With no sink registered (every rank but 0) they are discarded.
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
  bool stop = false;            ///< all ranks idle, confirmed — leave the loop
  bool cancel = false;          ///< some rank requested cooperative cancel
  double max_work = 0.0;        ///< largest per-rank simulated work this step
  /// Least pending priority over all ranks (UINT64_MAX: none pending).
  std::uint64_t min_priority = UINT64_MAX;
};

/// Two-phase all-to-all termination vote (propose, then confirm if idle).
class termination_vote {
 public:
  explicit termination_vote(peer_channels& chans);

  /// Runs one vote at the end of superstep `superstep`. `outstanding` is this
  /// rank's pending-work count, `cancel` its cooperative-stop flag, `work`
  /// its simulated work this superstep (cost-model units), `min_priority`
  /// its least pending priority.
  vote_decision round(std::uint64_t outstanding, bool cancel,
                      std::uint32_t superstep, double work = 0.0,
                      std::uint64_t min_priority = UINT64_MAX);

  /// Total vote rounds executed (confirmation rounds included).
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }

 private:
  superstep_vote fold_once(const superstep_vote& mine, bool confirm);

  peer_channels& chans_;
  std::uint64_t rounds_ = 0;
};

}  // namespace dsteiner::runtime::net

#include "runtime/net/termination.hpp"

#include <algorithm>
#include <string>

namespace dsteiner::runtime::net {

peer_channels::peer_channels(comm_backend& net)
    : net_(net),
      pending_(static_cast<std::size_t>(net.world_size())) {}

frame peer_channels::next(int from) {
  auto& queue = pending_[static_cast<std::size_t>(from)];
  while (queue.empty()) {
    int src = -1;
    frame f;
    if (!net_.recv(src, f)) {
      throw wire_error("mesh closed while waiting for rank " +
                       std::to_string(from));
    }
    if (f.type == frame_type::telemetry) {
      if (telemetry_sink_) telemetry_sink_(src, f);
      continue;  // never parked: invisible to the protocol paths
    }
    pending_[static_cast<std::size_t>(src)].push_back(std::move(f));
  }
  frame out = std::move(queue.front());
  queue.pop_front();
  return out;
}

frame peer_channels::expect(int from, frame_type type) {
  frame f = next(from);
  if (f.type != type) {
    throw wire_error(std::string("expected ") + to_string(type) +
                     " from rank " + std::to_string(from) + ", got " +
                     to_string(f.type));
  }
  return f;
}

std::uint32_t peer_channels::until_marker(
    int from, frame_type marker_type, const std::function<void(frame&)>& fn) {
  for (;;) {
    frame f = next(from);
    if (f.type == marker_type) return decode_marker(f);
    fn(f);
  }
}

termination_vote::termination_vote(peer_channels& chans) : chans_(chans) {}

superstep_vote termination_vote::fold_once(const superstep_vote& mine,
                                           bool confirm) {
  ++rounds_;
  comm_backend& net = chans_.backend();
  const frame f = encode_vote(mine, confirm);
  const frame_type want =
      confirm ? frame_type::vote_confirm : frame_type::vote;
  for (int peer = 0; peer < net.world_size(); ++peer) {
    if (peer != net.rank()) net.send(peer, f);
  }
  superstep_vote folded = mine;
  for (int peer = 0; peer < net.world_size(); ++peer) {
    if (peer == net.rank()) continue;
    const superstep_vote theirs = decode_vote(chans_.expect(peer, want));
    if (theirs.superstep != mine.superstep) {
      throw wire_error("vote superstep mismatch: mine " +
                       std::to_string(mine.superstep) + ", rank " +
                       std::to_string(peer) + " sent " +
                       std::to_string(theirs.superstep));
    }
    folded.outstanding += theirs.outstanding;
    folded.cancel = folded.cancel | theirs.cancel;
    folded.max_work = std::max(folded.max_work, theirs.max_work);
    folded.min_priority = std::min(folded.min_priority, theirs.min_priority);
  }
  return folded;
}

vote_decision termination_vote::round(std::uint64_t outstanding, bool cancel,
                                      std::uint32_t superstep, double work,
                                      std::uint64_t min_priority) {
  superstep_vote mine;
  mine.outstanding = outstanding;
  mine.superstep = superstep;
  mine.cancel = cancel ? 1 : 0;
  mine.max_work = work;
  mine.min_priority = min_priority;

  const superstep_vote proposed = fold_once(mine, /*confirm=*/false);
  vote_decision decision;
  decision.cancel = proposed.cancel != 0;
  decision.max_work = proposed.max_work;
  decision.min_priority = proposed.min_priority;
  if (proposed.cancel != 0) {
    decision.stop = true;  // cancellation stops everyone immediately
    return decision;
  }
  if (proposed.outstanding != 0) return decision;

  // Everyone proposed idle. Between a rank's vote and now no new data frames
  // can have been injected — sends happen before the vote within a superstep
  // and per-peer FIFO means any such frame would precede the vote we already
  // consumed. The confirm round re-affirms under that quiesced state and
  // keeps all ranks in lockstep on the same final superstep count.
  const superstep_vote confirmed = fold_once(mine, /*confirm=*/true);
  decision.cancel = confirmed.cancel != 0;
  decision.stop = confirmed.cancel != 0 || confirmed.outstanding == 0;
  return decision;
}

}  // namespace dsteiner::runtime::net

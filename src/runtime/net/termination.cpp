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
  if (out.type == frame_type::shutdown) {
    throw wire_error("rank " + std::to_string(from) + " left the mesh");
  }
  return out;
}

frame peer_channels::until_marker(int from, frame_type closing,
                                  const std::function<void(frame&)>& fn) {
  for (;;) {
    frame f = next(from);
    if (f.type == closing) return f;
    fn(f);
  }
}

vote_decision vote_round(peer_channels& chans, const superstep_vote& mine,
                         const std::function<void(int, frame&)>& on_data) {
  comm_backend& net = chans.backend();
  const frame f = encode_vote(mine);
  for (int peer = 0; peer < net.world_size(); ++peer) {
    if (peer != net.rank()) net.send(peer, f);
  }
  superstep_vote folded = mine;
  for (int peer = 0; peer < net.world_size(); ++peer) {
    if (peer == net.rank()) continue;
    const superstep_vote theirs = decode_vote(chans.until_marker(
        peer, frame_type::vote, [&](frame& data) { on_data(peer, data); }));
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
  vote_decision decision;
  decision.cancel = folded.cancel != 0;
  decision.stop = decision.cancel || folded.outstanding == 0;
  decision.max_work = folded.max_work;
  decision.min_priority = folded.min_priority;
  return decision;
}

}  // namespace dsteiner::runtime::net

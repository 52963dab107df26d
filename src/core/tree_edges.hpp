// Steiner-tree edge identification (paper Alg. 6, TREE_EDGE_ASYNC).
//
// After pruning, every surviving cross-cell edge (u, v) belongs to the final
// tree. Starting from u and v, asynchronous walk visitors follow pred
// pointers back to each cell's seed, adding each traversed edge. An in-tree
// bitmap stops walks that reach an already-collected vertex — this is why the
// phase's message count is proportional to |ES|, "orders of magnitude
// smaller" than |E| (§IV, Table IV).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/distance_graph.hpp"
#include "core/steiner_state.hpp"
#include "graph/types.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/visitor_engine.hpp"

namespace dsteiner::core {

/// TREE_EDGE_VISITOR of Alg. 6: carries only the vertex being visited.
struct tree_edge_visitor {
  graph::vertex_id vj = 0;

  [[nodiscard]] graph::vertex_id target() const noexcept { return vj; }
  [[nodiscard]] std::uint64_t priority() const noexcept { return 0; }
};

/// Alg. 6's walk step as a Handler for every engine (the cooperative and
/// threaded engines in-process, net::superstep_engine over wire frames).
class tree_edge_handler {
 public:
  tree_edge_handler(const runtime::dist_graph& dgraph,
                    const steiner_state& state,
                    std::vector<std::vector<graph::weighted_edge>>& per_rank_es)
      : dgraph_(&dgraph),
        state_(&state),
        es_(&per_rank_es),
        in_tree_(dgraph.graph().num_vertices(), 0) {}

  bool pre_visit(const tree_edge_visitor& v, int) {
    // Arrival check: a walk into an already-collected vertex carries no new
    // work (its chain to the seed is already in ES).
    return in_tree_[v.vj] == 0;
  }

  template <typename Emitter>
  bool visit(const tree_edge_visitor& v, int rank, Emitter& out) {
    const graph::vertex_id vj = v.vj;
    if (in_tree_[vj] != 0) return false;  // raced with another walk this round
    in_tree_[vj] = 1;
    if (vj == state_->src[vj]) return true;  // reached the cell's seed
    const graph::vertex_id p = state_->pred[vj];
    assert(p != graph::k_no_vertex);
    // The arc (vj -> pred) lives in vj's adjacency, so its weight is local.
    const auto w = dgraph_->graph().edge_weight(vj, p);
    assert(w.has_value());
    (*es_)[static_cast<std::size_t>(rank)].push_back(
        {std::min(p, vj), std::max(p, vj), *w});
    // Alg. 6 lines 12-13: continue the walk only while pred is not the seed.
    if (p != state_->src[vj]) out.to_vertex(tree_edge_visitor{p});
    return true;
  }

 private:
  const runtime::dist_graph* dgraph_;
  const steiner_state* state_;
  std::vector<std::vector<graph::weighted_edge>>* es_;
  // Byte-per-vertex, not vector<bool>: under the threaded engine each rank's
  // worker flips only its owned vertices, and bit-packing would make
  // neighbouring vertices on different workers share a byte (a data race).
  std::vector<std::uint8_t> in_tree_;
};

/// Alg. 6 lines 1-4: resets `per_rank_es` to one list per rank, places each
/// pruned bridge at its u endpoint's owner, and returns the walk visitors
/// for both endpoints of every bridge, in cell-pair order.
[[nodiscard]] inline std::vector<tree_edge_visitor> seed_tree_edges(
    const runtime::dist_graph& dgraph, const cross_edge_map& pruned_en,
    std::vector<std::vector<graph::weighted_edge>>& per_rank_es) {
  per_rank_es.assign(static_cast<std::size_t>(dgraph.num_ranks()), {});
  // Deterministic seeding order: sort the pruned bridges by cell pair.
  std::vector<std::pair<seed_pair, cross_edge_entry>> bridges(pruned_en.begin(),
                                                              pruned_en.end());
  std::sort(bridges.begin(), bridges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<tree_edge_visitor> initial;
  initial.reserve(bridges.size() * 2);
  for (const auto& [pair, entry] : bridges) {
    // Alg. 6 lines 3-4: the cross edge itself joins ES at u's home partition.
    per_rank_es[static_cast<std::size_t>(dgraph.owner(entry.u))].push_back(
        {entry.u, entry.v, entry.edge_weight});
    initial.push_back(tree_edge_visitor{entry.u});
    initial.push_back(tree_edge_visitor{entry.v});
  }
  return initial;
}

}  // namespace dsteiner::core

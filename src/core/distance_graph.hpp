// Distance graph G'1 construction (paper Alg. 5 and Alg. 3 lines 13-16).
//
// After Voronoi cells are known, every edge (u, v) in E with src(u) != src(v)
// is a *cross-cell* edge bridging cells N(s) and N(t); its bridging cost is
// d1(s,u) + d(u,v) + d1(v,t). Mehlhorn's G'1 keeps, per cell pair, only the
// minimum-cost bridge:
//   1. LOCAL_MIN_DIST_EDGE_ASYNC — an owner-computes scan: each rank walks
//      the arcs of its owned vertices and folds every bridge it finds into
//      its partition-local EN map. An undirected edge {u, v} is scanned once,
//      from the non-delegate endpoint when exactly one endpoint is a delegate
//      (so a hub's owner does no phase-2 work for it), else from the lower id.
//      The scanning owner needs only its neighbours' (src, d1) labels: shared
//      memory in-process, a ghost-label sync on net ranks. Every transport
//      runs this one scan and charges it as Alg. 5 would: one visit per
//      scanned edge plus one remote message when the other endpoint lives on
//      another rank.
//   2. GLOBAL_MIN_DIST_EDGE_COLL — MPI_Allreduce(MPI_MIN) over the per-rank
//      EN copies. Sparse map-merge by default; a dense (|S| choose 2) buffer
//      mode (optionally chunked) reproduces the paper's Fig. 8 memory
//      behaviour.
//
// Deterministic tie-break: entries are ordered by (bridge distance, u, v), so
// the global minimum per cell pair is unique.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/steiner_state.hpp"
#include "graph/types.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/engine_config.hpp"
#include "runtime/perf_model.hpp"
#include "util/hash.hpp"

namespace dsteiner::core {

/// Seed-id pair identifying a Voronoi cell pair; canonical first < second.
using seed_pair = std::pair<graph::vertex_id, graph::vertex_id>;

/// The minimum-distance bridge between one cell pair.
struct cross_edge_entry {
  graph::weight_t bridge_distance = graph::k_inf_distance;  ///< d1(s,u)+d(u,v)+d1(v,t)
  graph::vertex_id u = graph::k_no_vertex;  ///< cross-edge endpoint, u < v
  graph::vertex_id v = graph::k_no_vertex;
  graph::weight_t edge_weight = 0;  ///< d(u, v)

  friend bool operator==(const cross_edge_entry&, const cross_edge_entry&) = default;
};

/// Lexicographic (distance, u, v) minimum — the library-wide tie-break.
[[nodiscard]] inline const cross_edge_entry& min_entry(
    const cross_edge_entry& a, const cross_edge_entry& b) noexcept {
  if (a.bridge_distance != b.bridge_distance) {
    return a.bridge_distance < b.bridge_distance ? a : b;
  }
  if (a.u != b.u) return a.u < b.u ? a : b;
  return a.v <= b.v ? a : b;
}

/// Per-rank map EN: cell pair -> best bridge seen by this rank.
using cross_edge_map =
    std::unordered_map<seed_pair, cross_edge_entry, util::pair_hash>;

/// Step 1 for one rank: scans the arcs of `vertices` (all owned by `rank`)
/// and folds every bridge into `en`. Without `both_directions` each
/// undirected edge is scanned from one endpoint only (see the file comment);
/// with it, every non-self-loop arc of a listed vertex is scanned. Only
/// edges with both endpoints reached count. Returns this rank's work:
/// visitors_processed = edges scanned, messages_remote/local = scanned edges
/// whose other endpoint another rank / this rank owns, sim_units = their
/// cost under `costs`, rounds = 1. `state` must hold converged labels for
/// every vertex `rank` owns and each of their neighbours.
[[nodiscard]] runtime::phase_metrics scan_cross_edges(
    const runtime::dist_graph& dgraph, const steiner_state& state,
    const runtime::cost_model& costs, int rank,
    std::span<const graph::vertex_id> vertices, bool both_directions,
    cross_edge_map& en);

/// Step 1 for every simulated rank: fills `per_rank_en` (size = num ranks)
/// with partition-local minima by scanning each rank's owned vertices. With
/// `config.pool` the ranks are striped over its workers; otherwise they run
/// one after another. Counters sum over ranks and sim_units is the slowest
/// rank's, so the metrics do not depend on the mode or thread count.
/// `state` must hold converged Voronoi cells.
[[nodiscard]] runtime::phase_metrics find_local_min_edges(
    const runtime::dist_graph& dgraph, const steiner_state& state,
    std::vector<cross_edge_map>& per_rank_en,
    const runtime::engine_config& config);

/// Incremental variant of step 1 for warm starts: scans only `vertices`
/// (members of Voronoi cells whose labels or membership changed since a
/// cached solve), each on its owner's rank. Unlike the full scan, it scans
/// *both* directions of every arc of a listed vertex, so a bridge whose other
/// endpoint lies in an unchanged (unscanned) cell is still rediscovered.
/// Entries between two unchanged cells are by definition unchanged and must
/// be merged in from the cached solve by the caller.
[[nodiscard]] runtime::phase_metrics find_local_min_edges_partial(
    const runtime::dist_graph& dgraph, const steiner_state& state,
    std::span<const graph::vertex_id> vertices,
    std::vector<cross_edge_map>& per_rank_en,
    const runtime::engine_config& config);

/// Options for the global reduction.
struct global_reduce_options {
  /// Use a dense (|S| choose 2) buffer instead of the sparse map merge;
  /// requires `seeds`. Reproduces the paper's Alg. 3 line 2 representation.
  bool dense = false;
  std::span<const graph::vertex_id> seeds;
  /// Items per collective chunk; 0 = one monolithic call (§V-F). Applies to
  /// both the dense buffer and the sparse map merge.
  std::size_t chunk_items = 0;
};

/// Step 2: MPI_Allreduce(MPI_MIN); afterwards every rank's EN holds the
/// global minima.
[[nodiscard]] runtime::phase_metrics reduce_global_min_edges(
    const runtime::communicator& comm, std::vector<cross_edge_map>& per_rank_en,
    const global_reduce_options& options = {});

/// Dense-buffer index of the pair (i, j), i < j, among (|S| choose 2) slots.
[[nodiscard]] std::size_t dense_pair_index(std::size_t i, std::size_t j,
                                           std::size_t num_seeds) noexcept;

}  // namespace dsteiner::core

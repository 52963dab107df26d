// Warm-start recomputation across graph epochs (§I workflow).
//
// The interactive and service workloads re-query the same seed set after a
// small batch of edge edits. A cold solve re-grows all |S| Voronoi cells from
// scratch; the warm-start path instead *repairs* the donor solve of that seed
// set on the previous epoch:
//
//   - Raised/disabled edge: every vertex whose shortest-path witness (pred
//     chain) crosses it has a stale label. Those pred-subtrees are reset to
//     "unreached" and re-entered from their boundary: every arc (u, v) with
//     u outside and v inside the reset region injects u's current label.
//   - Lowered/enabled edge: its endpoints' current labels are injected
//     across it, and relaxation propagates the gains. Relaxations only ever
//     decrease the lexicographic (d1, src, pred) tuple, and the fixed point
//     is the unique per-vertex minimum, so the repair converges to exactly
//     the cold labelling.
//
// Phase 2 is rebuilt incrementally: only cells whose labelling or membership
// changed, or that hold a modified-edge endpoint ("affected" cells), can
// contribute different distance-graph entries, so the local scan covers only
// their members and entries between two unaffected cells are reused from the
// donor. Phases 3-6 (MST, pruning, tree-edge collection) run as usual — they
// are orders of magnitude cheaper (Table IV). The result is bit-identical to
// a cold solve; the savings show up in the Voronoi Cell / Local Min Dist.
// Edge phase metrics.
//
// The seed set never changes in a repair. A seed-set edit on the same epoch
// is served by a cold solve pre-seeded from the shared fragment store
// (solve_steiner_tree_assisted), which reuses the settled cells of the
// seeds the edit kept.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/distance_graph.hpp"
#include "core/steiner_solver.hpp"
#include "graph/epoch_graph.hpp"

namespace dsteiner::core {

/// Everything a later warm start (or the service result cache) needs from a
/// finished solve. Captured between the global reduction and pruning, so
/// `global_en` is the full distance graph G'1, not the pruned remnant.
struct solve_artifacts {
  std::vector<graph::vertex_id> seeds;  ///< canonical: deduplicated, sorted
  steiner_state state;                  ///< converged Voronoi labelling
  cross_edge_map global_en;             ///< reduced G'1 (pre-pruning)
  /// Fingerprint of the graph these artifacts belong to; a warm start
  /// against any other graph throws rather than repairing stale labels.
  std::uint64_t graph_fingerprint = 0;

  [[nodiscard]] bool empty() const noexcept { return state.distance.empty(); }

  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return seeds.size() * sizeof(graph::vertex_id) + state.memory_bytes() +
           global_en.size() * (sizeof(seed_pair) + sizeof(cross_edge_entry));
  }
};

/// Canonical form of a seed list: validated, deduplicated, sorted — the shape
/// stored in solve_artifacts::seeds and used as a cache key. The
/// vertex-count overload lets epoch-aware callers canonicalize (and key
/// caches) without materializing a CSR first.
[[nodiscard]] std::vector<graph::vertex_id> canonicalize_seeds(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds);
[[nodiscard]] std::vector<graph::vertex_id> canonicalize_seeds(
    graph::vertex_id num_vertices, std::span<const graph::vertex_id> seeds);

/// Observability for the repair: how much phase-1/2 work the warm start
/// actually did versus a cold solve's full sweep.
struct warm_start_stats {
  std::size_t edge_edits = 0;        ///< applied edge edits repaired over
  std::size_t reset_vertices = 0;    ///< vertices cleared because a raised or
                                     ///< disabled edge invalidated their
                                     ///< shortest-path witness
  std::size_t changed_vertices = 0;  ///< labels that differ from the donor
  std::size_t affected_cells = 0;    ///< cells rescanned in phase 2
  std::size_t rescanned_vertices = 0;  ///< phase-2 partial scan size
  std::size_t retained_entries = 0;  ///< G'1 entries reused from the donor
};

/// Warm-start solve of the donor's seed set `prev.seeds` across a graph
/// mutation: `prev` is a finished solve on the epoch whose structural CSR
/// fingerprint is `donor_graph_fingerprint`, and `edits` is the applied edge
/// delta taking that epoch to `graph` (see graph::epoch_store::delta_between).
/// Empty `edits` with the graph's own fingerprint repairs nothing and
/// rebuilds the donor's tree from its artifacts. `prev` may come from a solve
/// under any solver_config: the determinism guarantee makes its labelling
/// config-independent.
///
/// The result is bit-identical to solve_steiner_tree(graph, prev.seeds,
/// config). Throws std::invalid_argument when `prev` does not match
/// `donor_graph_fingerprint` or the vertex set differs (epochs preserve
/// |V|); callers such as the service then solve cold.
[[nodiscard]] steiner_result solve_steiner_tree_edge_warm(
    const graph::csr_graph& graph, const solve_artifacts& prev,
    std::uint64_t donor_graph_fingerprint,
    std::span<const graph::applied_edge_edit> edits, const solver_config& config,
    solve_artifacts* capture = nullptr, warm_start_stats* stats = nullptr);

}  // namespace dsteiner::core

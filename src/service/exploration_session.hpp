// Interactive exploration session — the paper's motivating workflow (§I):
// "a user will interact with such computation in various ways, exploring the
// relationships ... adding or removing classes of edges and/or vertices and
// adjusting edge distance functions based on investigating the output."
//
// A session owns a backing steiner_service and a mutable seed set; every
// edit (add/remove seeds, re-weight, filter edges) invalidates the cached
// result, which is recomputed lazily on the next query. Queries are
// delegated to the service, so a session gets its result cache and shared
// fragment store for free: re-adding a previously queried seed set is a
// cache hit, and a seed edit pre-seeds phase 1 from the settled cells of the
// seeds it kept instead of growing every cell from scratch.
//
// Graph edits (re-weighting, filtering) no longer rebuild the service: they
// diff the current graph against the edited one and *derive a new epoch*
// (graph::epoch_graph) on the same service. The next query warm-starts
// through the edge-delta Voronoi repair, previously cached results stay
// servable for their epochs until retirement, and re-deriving the same
// history reproduces the same epoch fingerprints.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/csr_graph.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/types.hpp"
#include "service/query.hpp"

namespace dsteiner::service {

class steiner_service;

class exploration_session {
 public:
  explicit exploration_session(graph::csr_graph graph,
                               core::solver_config config = {});
  ~exploration_session();

  /// Seed-set edits (idempotent; return true if the set changed).
  bool add_seed(graph::vertex_id v);
  bool remove_seed(graph::vertex_id v);
  void set_seeds(std::span<const graph::vertex_id> seeds);
  void clear_seeds();

  [[nodiscard]] std::vector<graph::vertex_id> seeds() const {
    return {seeds_.begin(), seeds_.end()};
  }
  [[nodiscard]] std::size_t seed_count() const noexcept { return seeds_.size(); }

  /// Derives an epoch keeping only edges with weight <= cutoff — the §I
  /// "removing classes of edges" interaction. Epoch edits act on undirected
  /// vertex pairs, so parallel edges are judged by their minimum weight (the
  /// only arc shortest paths can use): a pair whose minimum exceeds the
  /// cutoff is disabled outright; a kept pair whose heavier parallel arcs
  /// exceed it collapses to that minimum. Seeds are preserved; the next
  /// query may legitimately find them disconnected (a Steiner forest is
  /// returned because the session enables allow_disconnected_seeds).
  void filter_edges_above(graph::weight_t cutoff);

  /// Replaces edge weights via fn(u, v, w) — "adjusting edge distance
  /// functions". fn must return a weight >= 1. Epoch edits act on undirected
  /// vertex pairs: fn is called once per pair with its minimum weight, and a
  /// changed result sets every parallel arc of the pair. Only pairs whose
  /// weight actually changes enter the epoch delta; a no-op reweight derives
  /// no epoch and keeps the cached result valid.
  template <typename Fn>
  void reweight(Fn&& fn) {
    const graph::csr_graph& g = graph();
    graph::edge_delta delta;
    for (graph::vertex_id u = 0; u < g.num_vertices(); ++u) {
      const auto nbrs = g.neighbors(u);
      const auto wts = g.weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (u >= nbrs[i]) continue;
        // Rows are sorted by (target, weight): the first arc of a parallel
        // group carries the pair's minimum weight; skip the rest.
        if (i > 0 && nbrs[i] == nbrs[i - 1]) continue;
        const graph::weight_t next = fn(u, nbrs[i], wts[i]);
        if (next != wts[i]) {
          delta.edits.push_back(graph::edge_edit::reweight(u, nbrs[i], next));
        }
      }
    }
    apply_edge_delta(delta);
  }

  /// Removes every vertex failing `keep(v)` — the §I "removing classes of
  /// ... vertices" interaction. Vertex removal is modelled as disabling all
  /// incident edges in one epoch delta (the vertex id stays valid but
  /// isolated, so epoch invariants — |V| preserved — hold and re-enabling
  /// later epochs can resurrect it). Removing a *seed* vertex is rejected
  /// with std::invalid_argument before anything is applied: a seed is the
  /// query's subject, silently isolating it would turn every tree into a
  /// degenerate forest — remove_seed() it first.
  template <typename Pred>
  void filter_vertices(Pred&& keep) {
    const graph::csr_graph& g = graph();
    std::vector<graph::vertex_id> victims;
    for (graph::vertex_id v = 0; v < g.num_vertices(); ++v) {
      if (!keep(v)) victims.push_back(v);
    }
    remove_vertices(victims);
  }

  /// Span form of filter_vertices: removes exactly `victims` (duplicates
  /// tolerated). Same seed-rejection contract.
  void remove_vertices(std::span<const graph::vertex_id> victims);

  /// Scale-out knob: change the simulated rank count for future queries.
  void set_ranks(int num_ranks);

  /// The Steiner tree for the current seed set; cached until the next edit.
  /// Empty result (no edges) for fewer than two seeds.
  const core::steiner_result& tree();

  /// True if the cache is valid (no recompute pending).
  [[nodiscard]] bool up_to_date() const noexcept { return cached_.has_value(); }

  /// Number of solver runs (cold or warm) performed so far; service cache
  /// hits do not count (observability for tests/UX).
  [[nodiscard]] std::uint64_t recompute_count() const noexcept {
    return recomputes_;
  }

  /// How the backing service satisfied the most recent tree() recompute.
  [[nodiscard]] solve_kind last_solve_kind() const noexcept {
    return last_kind_;
  }

  /// The backing query service (stats: cache hit rates, warm-start counts,
  /// epoch advances).
  [[nodiscard]] const steiner_service& service() const noexcept {
    return *service_;
  }

  /// The graph epoch the session's edits have reached.
  [[nodiscard]] std::uint64_t current_epoch() const noexcept { return epoch_; }

  /// The session's current graph lives in the backing service (one copy,
  /// not two). The returned reference is invalidated by graph edits
  /// (reweight, filter_edges_above) once enough further edits retire the
  /// epoch — re-fetch after editing.
  [[nodiscard]] const graph::csr_graph& graph() const;

 private:
  void invalidate() noexcept { cached_.reset(); }
  /// Advances the service's epoch (no-op for an empty delta).
  void apply_edge_delta(const graph::edge_delta& delta);

  core::solver_config config_;
  std::unique_ptr<steiner_service> service_;
  std::set<graph::vertex_id> seeds_;
  std::optional<core::steiner_result> cached_;
  std::uint64_t recomputes_ = 0;
  std::uint64_t epoch_ = 0;
  solve_kind last_kind_ = solve_kind::cold;
};

}  // namespace dsteiner::service

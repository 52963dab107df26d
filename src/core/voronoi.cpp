#include "core/voronoi.hpp"

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

namespace dsteiner::core {

std::uint64_t voronoi_handler::frontier_window(
    const graph::csr_graph& graph) noexcept {
  const std::uint64_t m = graph.num_arcs();
  if (m == 0) return 1;
  // floor(W·n/m²) = floor(floor(W·n/m) / m), with floor(W·n/m) =
  // (W/m)·n + (W%m)·n/m. W/m is at most the largest weight, so every
  // intermediate stays below 2^128.
  using u128 = unsigned __int128;
  const u128 w = graph.total_arc_weight();
  const u128 n = graph.num_vertices();
  const u128 delta = ((w / m) * n + (w % m) * n / m) / m;
  return static_cast<std::uint64_t>(
      std::clamp<u128>(delta, 1, std::numeric_limits<std::uint64_t>::max()));
}

runtime::phase_metrics compute_voronoi_cells(
    const runtime::dist_graph& dgraph, std::span<const graph::vertex_id> seeds,
    steiner_state& state, const runtime::engine_config& config,
    const voronoi_prune& prune) {
  std::vector<voronoi_visitor> initial;
  initial.reserve(seeds.size());
  for (const graph::vertex_id s : seeds) {
    initial.push_back(voronoi_visitor{s, s, s, 0});
  }
  return repair_voronoi_cells(dgraph, std::move(initial), state, config, prune);
}

runtime::phase_metrics repair_voronoi_cells(
    const runtime::dist_graph& dgraph, std::vector<voronoi_visitor> initial,
    steiner_state& state, const runtime::engine_config& config,
    const voronoi_prune& prune) {
  voronoi_handler handler(dgraph, state, prune);
  return runtime::run_visitors(dgraph.parts(), handler, std::move(initial),
                               config);
}

std::vector<voronoi_visitor> inject_fragments(
    const graph::csr_graph& graph,
    std::span<const sssp_fragment_view> fragments,
    std::span<const graph::vertex_id> seeds, steiner_state& state,
    std::size_t* preseeded) {
  const graph::vertex_id n = graph.num_vertices();

  // 1. Pre-seed: per-vertex lexicographic minimum across all usable
  // fragments. `touched` stays duplicate-free (a vertex is pushed only on its
  // first label) so the frontier scan below visits each adjacency once.
  std::vector<graph::vertex_id> touched;
  for (const sssp_fragment_view& frag : fragments) {
    if (!std::binary_search(seeds.begin(), seeds.end(), frag.seed)) {
      continue;  // labels from a non-seed would not be achievable here
    }
    for (std::size_t i = 0; i < frag.vertices.size(); ++i) {
      const graph::vertex_id v = frag.vertices[i];
      if (v >= n) continue;  // defensive: fragment from a different graph
      const std::tuple cand{frag.distance[i], frag.seed, frag.pred[i]};
      if (cand >= state.tuple_of(v)) continue;
      if (!state.reached(v)) touched.push_back(v);
      state.distance[v] = frag.distance[i];
      state.src[v] = frag.seed;
      state.pred[v] = frag.pred[i];
    }
  }
  if (preseeded != nullptr) *preseeded = touched.size();

  // 2. Seed bootstraps: seeds fully covered by a fragment drop theirs at
  // admission (equal tuple); everything else grows from scratch as usual.
  std::vector<voronoi_visitor> initial;
  initial.reserve(seeds.size() + touched.size());
  for (const graph::vertex_id s : seeds) {
    initial.push_back(voronoi_visitor{s, s, s, 0});
  }

  // 3. Improving frontier: scatter from a pre-seeded vertex across exactly
  // the arcs whose relaxation improves the target's current state — the
  // fragment surface and cross-fragment seams. One converged cell is
  // internally consistent (label(u) <= label(v) + w along every internal
  // arc), so interior arcs emit nothing; the scan is a comparison per arc,
  // not engine work.
  for (const graph::vertex_id v : touched) {
    const auto nbrs = graph.neighbors(v);
    const auto wts = graph.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::vertex_id u = nbrs[i];
      const graph::weight_t d = state.distance[v] + wts[i];
      if (std::tuple{d, state.src[v], v} < state.tuple_of(u)) {
        initial.push_back(voronoi_visitor{u, v, state.src[v], d});
      }
    }
  }
  return initial;
}

}  // namespace dsteiner::core

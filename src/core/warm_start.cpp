#include "core/warm_start.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/solver_detail.hpp"
#include "core/voronoi.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_graph.hpp"
#include "util/hash.hpp"

namespace dsteiner::core {

steiner_result solve_steiner_tree_capture(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const solver_config& config, solve_artifacts& capture) {
  return detail::solve_cold(graph, seeds, config, &capture);
}

std::vector<graph::vertex_id> canonicalize_seeds(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds) {
  return detail::dedup_seeds(graph, seeds);
}

std::vector<graph::vertex_id> canonicalize_seeds(
    graph::vertex_id num_vertices, std::span<const graph::vertex_id> seeds) {
  return detail::dedup_seeds(num_vertices, seeds);
}

seed_delta compute_seed_delta(std::span<const graph::vertex_id> donor,
                              std::span<const graph::vertex_id> target) {
  seed_delta delta;
  std::set_difference(target.begin(), target.end(), donor.begin(), donor.end(),
                      std::back_inserter(delta.added));
  std::set_difference(donor.begin(), donor.end(), target.begin(), target.end(),
                      std::back_inserter(delta.removed));
  return delta;
}

namespace {

using edge_key = std::pair<graph::vertex_id, graph::vertex_id>;

edge_key key_of(graph::vertex_id a, graph::vertex_id b) noexcept {
  return a < b ? edge_key{a, b} : edge_key{b, a};
}

/// Shared repair core behind the seed-delta and edge-delta warm starts:
/// starts from a converged donor labelling, resets exactly the regions the
/// deltas invalidate, re-relaxes from the injected frontiers, and rebuilds
/// phase 2 incrementally over the affected cells. `expected_fingerprint` is
/// the structural fingerprint of the graph the donor was solved on — the
/// target graph itself for pure seed deltas, the parent epoch's CSR for edge
/// deltas.
steiner_result repair_solve(const graph::csr_graph& graph,
                            std::span<const graph::vertex_id> seeds,
                            const solve_artifacts& prev,
                            std::uint64_t expected_fingerprint,
                            std::span<const graph::applied_edge_edit> edits,
                            const solver_config& config,
                            solve_artifacts* capture,
                            warm_start_stats* stats_out) {
  if (prev.empty() || prev.graph_fingerprint != expected_fingerprint) {
    throw std::invalid_argument(
        "solve_steiner_tree_warm: donor artifacts do not match the graph");
  }
  if (prev.state.distance.size() != graph.num_vertices()) {
    throw std::invalid_argument(
        "solve_steiner_tree_warm: donor vertex set differs from the graph");
  }

  steiner_result result;
  if (config.budget != nullptr) config.budget->check();
  const std::vector<graph::vertex_id> seed_list =
      detail::dedup_seeds(graph, seeds);
  result.num_seeds = seed_list.size();
  result.memory.graph_bytes = graph.memory_bytes();
  warm_start_stats stats;
  stats.edge_edits = edits.size();
  if (seed_list.size() <= 1) {
    if (stats_out != nullptr) *stats_out = stats;
    return result;
  }

  const seed_delta delta = compute_seed_delta(prev.seeds, seed_list);
  stats.added_seeds = delta.added.size();
  stats.removed_seeds = delta.removed.size();

  const runtime::dist_graph_config dconfig{
      config.num_ranks, config.scheme, config.use_delegates,
      config.delegate_threshold};
  const runtime::dist_graph dgraph(graph, dconfig);
  result.delegate_count = dgraph.delegate_count();
  result.memory.partition_bytes = dgraph.memory_bytes();

  const detail::engine_context context(config);
  const runtime::engine_config& engine = context.config;
  // Pool handoff mirrors solve_cold: collectives run between engine phases,
  // so the per-solve worker pool is idle and can speed the allreduce fan-out.
  const runtime::communicator comm(config.num_ranks, config.costs, engine.pool);
  comm.reset_peak_buffer();

  // Step 1 (repair): start from the donor labelling, reset invalidated
  // regions, re-enter them from their boundary, bootstrap added seeds and
  // inject improvement frontiers across lowered edges.
  steiner_state state = prev.state;
  const graph::vertex_id n = graph.num_vertices();

  std::vector<char> is_reset(n, 0);
  std::vector<graph::vertex_id> reset_list;
  const auto reset_vertex = [&](graph::vertex_id v) {
    state.distance[v] = graph::k_inf_distance;
    state.src[v] = graph::k_no_vertex;
    state.pred[v] = graph::k_no_vertex;
    is_reset[v] = 1;
    reset_list.push_back(v);
  };

  // 1a. Removed seeds: reset their whole cells (pred chains never leave a
  // cell, so no outside vertex references them).
  if (!delta.removed.empty()) {
    const std::unordered_set<graph::vertex_id> removed(delta.removed.begin(),
                                                       delta.removed.end());
    for (graph::vertex_id v = 0; v < n; ++v) {
      if (state.src[v] != graph::k_no_vertex && removed.contains(state.src[v])) {
        reset_vertex(v);
      }
    }
  }

  // 1b. Raised/disabled edges: any vertex whose donor shortest-path witness
  // crosses one has a stale (now unachievable) label. The witness of v is
  // its pred chain, so the invalidated set is the union of pred-subtrees
  // hanging off the modified arcs; reset it and re-enter from the boundary
  // exactly like a removed cell. (Conservative: a raised edge that is still
  // on a shortest path resets and rebuilds to the same labels.)
  std::unordered_set<edge_key, util::pair_hash> raised;
  for (const graph::applied_edge_edit& e : edits) {
    if (e.raised()) raised.insert(key_of(e.u, e.v));
  }
  if (!raised.empty()) {
    // Pred-tree children lists over the donor labelling (reset cells are
    // self-contained and already cleared; their members just never match).
    std::vector<std::vector<graph::vertex_id>> children(n);
    for (graph::vertex_id v = 0; v < n; ++v) {
      const graph::vertex_id p = prev.state.pred[v];
      if (p != graph::k_no_vertex && p != v) children[p].push_back(v);
    }
    std::vector<graph::vertex_id> stack;
    for (graph::vertex_id v = 0; v < n; ++v) {
      const graph::vertex_id p = prev.state.pred[v];
      if (is_reset[v] != 0 || p == graph::k_no_vertex || p == v) continue;
      if (raised.contains(key_of(p, v))) stack.push_back(v);
    }
    while (!stack.empty()) {
      const graph::vertex_id v = stack.back();
      stack.pop_back();
      if (is_reset[v] != 0) continue;
      reset_vertex(v);
      ++stats.damaged_vertices;
      for (const graph::vertex_id c : children[v]) {
        if (is_reset[c] == 0) stack.push_back(c);
      }
    }
  }
  stats.reset_vertices = reset_list.size();

  std::vector<voronoi_visitor> initial;
  initial.reserve(delta.added.size() + reset_list.size());
  for (const graph::vertex_id s : delta.added) {
    initial.push_back(voronoi_visitor{s, s, s, 0});
  }
  // Boundary re-entry: the graph is symmetric, so a reset vertex's adjacency
  // enumerates exactly the arcs entering the reset region from outside —
  // with the *target* graph's weights, so repaired labels are born correct.
  for (const graph::vertex_id v : reset_list) {
    const auto nbrs = graph.neighbors(v);
    const auto wts = graph.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::vertex_id u = nbrs[i];
      if (!state.reached(u)) continue;  // also inside the reset region
      initial.push_back(
          voronoi_visitor{v, u, state.src[u], state.distance[u] + wts[i]});
    }
  }
  // Lowered/enabled edges between two live vertices: neither endpoint is
  // reset, so boundary re-entry never probes the edge — inject both
  // directions explicitly. (Later improvements re-scatter on their own.)
  for (const graph::applied_edge_edit& e : edits) {
    if (!e.lowered()) continue;
    const std::optional<graph::weight_t> w = graph.edge_weight(e.u, e.v);
    if (!w) continue;  // defensive: lowered() implies presence
    if (state.reached(e.u)) {
      initial.push_back(voronoi_visitor{e.v, e.u, state.src[e.u],
                                        state.distance[e.u] + *w});
    }
    if (state.reached(e.v)) {
      initial.push_back(voronoi_visitor{e.u, e.v, state.src[e.v],
                                        state.distance[e.v] + *w});
    }
  }
  detail::run_phase(result, config, runtime::phase_names::voronoi, [&] {
    return repair_voronoi_cells(dgraph, std::move(initial), state, engine);
  });
  result.memory.state_bytes = state.memory_bytes() + n / 8;
  result.memory.send_filter_bytes =
      voronoi_handler::filter_bytes(dgraph, config.num_ranks);
  result.memory.queue_index_bytes =
      runtime::mailbox<voronoi_visitor>::index_bytes(config.policy, n);

  // Affected cells: any cell that gained or lost a member or whose labels
  // moved, plus the delta seeds, plus every cell holding a modified-edge
  // endpoint (its minimum bridge may have changed even when no label did).
  // Only these can contribute distance-graph entries that differ from the
  // donor's.
  std::unordered_set<graph::vertex_id> affected(delta.added.begin(),
                                                delta.added.end());
  affected.insert(delta.removed.begin(), delta.removed.end());
  const auto mark_cell = [&affected](graph::vertex_id cell) {
    if (cell != graph::k_no_vertex) affected.insert(cell);
  };
  for (const graph::applied_edge_edit& e : edits) {
    mark_cell(prev.state.src[e.u]);
    mark_cell(prev.state.src[e.v]);
    mark_cell(state.src[e.u]);
    mark_cell(state.src[e.v]);
  }
  std::size_t changed = 0;
  for (graph::vertex_id v = 0; v < n; ++v) {
    if (state.tuple_of(v) == prev.state.tuple_of(v)) continue;
    ++changed;
    mark_cell(prev.state.src[v]);
    mark_cell(state.src[v]);
  }
  stats.changed_vertices = changed;
  stats.affected_cells = affected.size();

  // Step 2a (incremental): rescan only members of affected cells.
  std::vector<graph::vertex_id> scan;
  for (graph::vertex_id v = 0; v < n; ++v) {
    if (state.src[v] != graph::k_no_vertex && affected.contains(state.src[v])) {
      scan.push_back(v);
    }
  }
  stats.rescanned_vertices = scan.size();
  std::vector<cross_edge_map> per_rank_en;
  detail::run_phase(result, config, runtime::phase_names::local_min_edge, [&] {
    return find_local_min_edges_partial(dgraph, state, scan, per_rank_en,
                                        engine);
  });

  // Step 2b: global reduction over the rescanned entries only (off-engine:
  // checkpoint at the boundary).
  if (config.budget != nullptr) config.budget->check();
  detail::run_phase(result, config, runtime::phase_names::global_min_edge, [&] {
    return reduce_global_min_edges(
        comm, per_rank_en,
        {config.dense_distance_graph, seed_list, config.allreduce_chunk_items});
  });

  // Reuse donor entries between two unaffected cells: their membership and
  // labels are untouched and a modified edge's endpoints always lie in
  // affected cells, so their minimum bridge is unchanged. (Every rank
  // already holds the donor's reduced EN — allreduce semantics — so this
  // merge moves no data and charges nothing.)
  for (const auto& [key, entry] : prev.global_en) {
    if (affected.contains(key.first) || affected.contains(key.second)) continue;
    ++stats.retained_entries;
    for (auto& local : per_rank_en) {
      const auto [it, inserted] = local.emplace(key, entry);
      if (!inserted) it->second = min_entry(it->second, entry);
    }
  }

  // Steps 3-6 are shared with the cold path.
  detail::finish_solve(
      graph, comm, config, seed_list, state, per_rank_en, result, capture,
      detail::in_process_tree_edges(dgraph, state, engine, comm));
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace

steiner_result solve_steiner_tree_warm(const graph::csr_graph& graph,
                                       std::span<const graph::vertex_id> seeds,
                                       const solve_artifacts& prev,
                                       const solver_config& config,
                                       solve_artifacts* capture,
                                       warm_start_stats* stats_out) {
  return repair_solve(graph, seeds, prev, graph.fingerprint(), {}, config,
                      capture, stats_out);
}

steiner_result solve_steiner_tree_edge_warm(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const solve_artifacts& prev, std::uint64_t donor_graph_fingerprint,
    std::span<const graph::applied_edge_edit> edits, const solver_config& config,
    solve_artifacts* capture, warm_start_stats* stats_out) {
  return repair_solve(graph, seeds, prev, donor_graph_fingerprint, edits,
                      config, capture, stats_out);
}

}  // namespace dsteiner::core

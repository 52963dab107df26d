#include "core/distance_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "runtime/parallel/worker_pool.hpp"
#include "util/timer.hpp"

namespace dsteiner::core {

namespace {

/// Runs scan_cross_edges for every rank over `vertices_of(r)` into
/// per_rank_en[r], striped over the solve's worker pool when there is one.
/// Counters sum over ranks; sim_units is the slowest rank's work.
template <typename VerticesOf>
runtime::phase_metrics scan_all_ranks(const runtime::dist_graph& dgraph,
                                      const steiner_state& state,
                                      VerticesOf&& vertices_of,
                                      bool both_directions,
                                      std::vector<cross_edge_map>& per_rank_en,
                                      const runtime::engine_config& config) {
  const util::timer wall;
  const auto ranks = static_cast<std::size_t>(dgraph.num_ranks());
  per_rank_en.assign(ranks, {});
  std::vector<runtime::phase_metrics> per_rank(ranks);
  const auto scan_rank = [&](std::size_t r) {
    per_rank[r] = scan_cross_edges(dgraph, state, config.costs,
                                   static_cast<int>(r), vertices_of(r),
                                   both_directions, per_rank_en[r]);
  };
  if (config.pool != nullptr) {
    const std::size_t workers = config.pool->size();
    config.pool->run([&](std::size_t w) {
      for (std::size_t r = w; r < ranks; r += workers) scan_rank(r);
    });
  } else {
    for (std::size_t r = 0; r < ranks; ++r) scan_rank(r);
  }

  runtime::phase_metrics metrics;
  metrics.rounds = 1;
  for (const runtime::phase_metrics& m : per_rank) {
    metrics.visitors_processed += m.visitors_processed;
    metrics.messages_local += m.messages_local;
    metrics.messages_remote += m.messages_remote;
    metrics.sim_units = std::max(metrics.sim_units, m.sim_units);
  }
  metrics.wall_seconds = wall.seconds();
  return metrics;
}

}  // namespace

runtime::phase_metrics scan_cross_edges(
    const runtime::dist_graph& dgraph, const steiner_state& state,
    const runtime::cost_model& costs, int rank,
    std::span<const graph::vertex_id> vertices, bool both_directions,
    cross_edge_map& en) {
  runtime::phase_metrics metrics;
  const util::timer wall;
  for (const graph::vertex_id u : vertices) {
    if (!state.reached(u)) continue;  // isolated from every seed
    const bool u_delegate = dgraph.is_delegate(u);
    const auto neighbors = dgraph.graph().neighbors(u);
    const auto weights = dgraph.graph().weights(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const graph::vertex_id v = neighbors[i];
      if (both_directions) {
        if (u == v) continue;
      } else if (u_delegate != dgraph.is_delegate(v) ? u_delegate : u >= v) {
        continue;  // {u, v} is scanned from v
      }
      if (!state.reached(v)) continue;
      ++metrics.visitors_processed;
      // The probe Alg. 5 would send when the other endpoint lives elsewhere.
      if (dgraph.owner(v) != rank) {
        ++metrics.messages_remote;
      } else {
        ++metrics.messages_local;
      }
      if (state.src[u] == state.src[v]) continue;  // same cell: not a bridge
      const seed_pair key{std::min(state.src[u], state.src[v]),
                          std::max(state.src[u], state.src[v])};
      const cross_edge_entry candidate{
          state.distance[u] + weights[i] + state.distance[v], std::min(u, v),
          std::max(u, v), weights[i]};
      const auto [it, inserted] = en.emplace(key, candidate);
      if (!inserted) it->second = min_entry(it->second, candidate);
    }
  }
  metrics.rounds = 1;
  metrics.sim_units =
      static_cast<double>(metrics.visitors_processed) * costs.visit_cost +
      static_cast<double>(metrics.messages_remote) * costs.remote_msg_cost;
  metrics.wall_seconds = wall.seconds();
  return metrics;
}

runtime::phase_metrics find_local_min_edges(
    const runtime::dist_graph& dgraph, const steiner_state& state,
    std::vector<cross_edge_map>& per_rank_en,
    const runtime::engine_config& config) {
  return scan_all_ranks(
      dgraph, state,
      [&](std::size_t r) { return dgraph.local_vertices(static_cast<int>(r)); },
      /*both_directions=*/false, per_rank_en, config);
}

runtime::phase_metrics find_local_min_edges_partial(
    const runtime::dist_graph& dgraph, const steiner_state& state,
    std::span<const graph::vertex_id> vertices,
    std::vector<cross_edge_map>& per_rank_en,
    const runtime::engine_config& config) {
  std::vector<std::vector<graph::vertex_id>> by_owner(
      static_cast<std::size_t>(dgraph.num_ranks()));
  for (const graph::vertex_id u : vertices) {
    by_owner[static_cast<std::size_t>(dgraph.owner(u))].push_back(u);
  }
  return scan_all_ranks(
      dgraph, state,
      [&](std::size_t r) { return std::span<const graph::vertex_id>(by_owner[r]); },
      /*both_directions=*/true, per_rank_en, config);
}

std::size_t dense_pair_index(std::size_t i, std::size_t j,
                             std::size_t num_seeds) noexcept {
  assert(i < j && j < num_seeds);
  // Row-major upper triangle: row i starts after i rows of shrinking length.
  return i * (2 * num_seeds - i - 1) / 2 + (j - i - 1);
}

runtime::phase_metrics reduce_global_min_edges(
    const runtime::communicator& comm, std::vector<cross_edge_map>& per_rank_en,
    const global_reduce_options& options) {
  runtime::phase_metrics metrics;
  util::timer wall;
  if (!options.dense) {
    comm.allreduce_map(per_rank_en,
                       [](const cross_edge_entry& a, const cross_edge_entry& b) {
                         return min_entry(a, b);
                       },
                       metrics, options.chunk_items);
    metrics.wall_seconds = wall.seconds();
    return metrics;
  }

  // Dense mode: materialise the (|S| choose 2) buffer of Alg. 3 line 2.
  const std::span<const graph::vertex_id> seeds = options.seeds;
  if (seeds.empty()) {
    throw std::invalid_argument(
        "reduce_global_min_edges: dense mode requires the seed list");
  }
  std::unordered_map<graph::vertex_id, std::size_t> seed_index;
  seed_index.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) seed_index.emplace(seeds[i], i);

  const std::size_t slots = seeds.size() * (seeds.size() - 1) / 2;
  std::vector<std::vector<cross_edge_entry>> dense(per_rank_en.size());
  for (std::size_t r = 0; r < per_rank_en.size(); ++r) {
    dense[r].assign(slots, cross_edge_entry{});
    for (const auto& [key, entry] : per_rank_en[r]) {
      const std::size_t i = seed_index.at(key.first);
      const std::size_t j = seed_index.at(key.second);
      const std::size_t slot =
          dense_pair_index(std::min(i, j), std::max(i, j), seeds.size());
      dense[r][slot] = min_entry(dense[r][slot], entry);
    }
  }
  comm.allreduce(dense,
                 [](const cross_edge_entry& a, const cross_edge_entry& b) {
                   return min_entry(a, b);
                 },
                 metrics, options.chunk_items);
  // Rebuild the (now identical) per-rank maps from the reduced buffer.
  for (std::size_t r = 0; r < per_rank_en.size(); ++r) {
    per_rank_en[r].clear();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      for (std::size_t j = i + 1; j < seeds.size(); ++j) {
        const cross_edge_entry& entry =
            dense[r][dense_pair_index(i, j, seeds.size())];
        if (entry.bridge_distance == graph::k_inf_distance) continue;
        const seed_pair key{std::min(seeds[i], seeds[j]),
                            std::max(seeds[i], seeds[j])};
        per_rank_en[r].emplace(key, entry);
      }
    }
  }
  metrics.wall_seconds = wall.seconds();
  return metrics;
}

}  // namespace dsteiner::core

#include "core/steiner_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "core/distance_graph.hpp"
#include "core/mst_prim.hpp"
#include "core/pruning.hpp"
#include "core/solver_detail.hpp"
#include "core/steiner_state.hpp"
#include "core/tree_edges.hpp"
#include "core/validation.hpp"
#include "core/voronoi.hpp"
#include "core/warm_start.hpp"
#include "runtime/comm.hpp"
#include "util/timer.hpp"

namespace dsteiner::core {

namespace detail {

std::vector<graph::vertex_id> dedup_seeds(
    graph::vertex_id num_vertices, std::span<const graph::vertex_id> seeds) {
  std::unordered_set<graph::vertex_id> unique;
  std::vector<graph::vertex_id> result;
  result.reserve(seeds.size());
  for (const graph::vertex_id s : seeds) {
    if (s >= num_vertices) {
      throw std::out_of_range("solve_steiner_tree: seed id out of range");
    }
    if (unique.insert(s).second) result.push_back(s);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<graph::vertex_id> dedup_seeds(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds) {
  return dedup_seeds(graph.num_vertices(), seeds);
}

void finish_solve(const graph::csr_graph& graph,
                  const runtime::communicator& comm,
                  const solver_config& config,
                  std::span<const graph::vertex_id> seed_list,
                  const steiner_state& state,
                  std::vector<cross_edge_map>& per_rank_en,
                  steiner_result& result, solve_artifacts* capture,
                  const tree_edge_phase& tree_edges) {
  // Checkpoint between the reduction and the sequential tail: phases 3-5 run
  // without an engine (no per-round poll), so the boundaries are where a
  // cancelled or expired solve stops.
  if (config.budget != nullptr) config.budget->check();
  result.distance_graph_edges = per_rank_en.front().size();
  {
    std::uint64_t en_bytes = 0;
    for (const auto& local : per_rank_en) {
      en_bytes += local.size() * (sizeof(seed_pair) + sizeof(cross_edge_entry));
    }
    result.memory.distance_graph_bytes = en_bytes;
  }
  // Capture G'1 before pruning shrinks the per-rank maps in place.
  if (capture != nullptr) capture->global_en = per_rank_en.front();

  // Step 3: sequential MST of G'1, replicated (line 17).
  distance_graph_mst mst;
  run_phase(result, config, runtime::phase_names::mst, [&] {
    runtime::phase_metrics metrics;
    mst = compute_distance_graph_mst(per_rank_en.front(), seed_list, comm,
                                     metrics);
    return metrics;
  });
  if (config.budget != nullptr) config.budget->check();
  result.spans_all_seeds = mst.spans_all_seeds;
  if (!mst.spans_all_seeds && !config.allow_disconnected_seeds) {
    throw std::runtime_error(
        "solve_steiner_tree: seeds are not mutually reachable "
        "(set allow_disconnected_seeds to obtain a Steiner forest)");
  }

  // Step 4: global edge pruning (line 18).
  run_phase(result, config, runtime::phase_names::pruning, [&] {
    return prune_cross_edges(comm, per_rank_en, mst.mst_pairs);
  });

  // Step 5: Steiner tree edges (line 19) and result assembly (line 20).
  run_phase(result, config, runtime::phase_names::tree_edge, [&] {
    return tree_edges(per_rank_en.front(), result.tree_edges);
  });
  for (const graph::weighted_edge& e : result.tree_edges) {
    result.total_distance += e.weight;
  }
  std::sort(result.tree_edges.begin(), result.tree_edges.end(),
            [](const graph::weighted_edge& a, const graph::weighted_edge& b) {
              return std::tuple{a.source, a.target} < std::tuple{b.source, b.target};
            });
  result.memory.tree_bytes =
      result.tree_edges.size() * sizeof(graph::weighted_edge);
  result.memory.collective_buffer_bytes = comm.peak_buffer_bytes();
  for (const auto& [name, metrics] : result.phases.by_name()) {
    result.memory.queue_peak_bytes =
        std::max(result.memory.queue_peak_bytes, metrics.queue_peak_bytes);
  }

  if (config.validate && result.spans_all_seeds) {
    const auto check = validate_steiner_tree(graph, seed_list, result.tree_edges);
    if (!check) {
      throw std::logic_error("solve_steiner_tree: invalid output tree: " +
                             check.error);
    }
  }
  if (capture != nullptr) {
    capture->seeds.assign(seed_list.begin(), seed_list.end());
    capture->state = state;
    capture->graph_fingerprint = graph.fingerprint();
  }
}

tree_edge_phase in_process_tree_edges(const runtime::dist_graph& dgraph,
                                      const steiner_state& state,
                                      const runtime::engine_config& engine,
                                      const runtime::communicator& comm) {
  return [&dgraph, &state, &engine, &comm](
             const cross_edge_map& pruned_en,
             std::vector<graph::weighted_edge>& tree) {
    std::vector<std::vector<graph::weighted_edge>> per_rank_es;
    tree_edge_handler handler(dgraph, state, per_rank_es);
    auto metrics = runtime::run_visitors(
        dgraph.parts(), handler,
        seed_tree_edges(dgraph, pruned_en, per_rank_es), engine);
    tree = comm.allgather(per_rank_es, metrics);
    // D(GS): one partial sum per rank, reduced (Alg. 3 line 20).
    comm.charge_collective(sizeof(graph::weight_t), metrics);
    comm.note_buffer_bytes(sizeof(graph::weight_t));
    return metrics;
  };
}

steiner_result solve_cold(const graph::csr_graph& graph,
                          std::span<const graph::vertex_id> seeds,
                          const solver_config& config,
                          solve_artifacts* capture,
                          const solve_assists& assists,
                          assist_stats* assist_out) {
  steiner_result result;
  if (config.budget != nullptr) config.budget->check();
  const std::vector<graph::vertex_id> seed_list = dedup_seeds(graph, seeds);
  result.num_seeds = seed_list.size();
  result.memory.graph_bytes = graph.memory_bytes();
  if (seed_list.size() <= 1) return result;

  const runtime::dist_graph_config dconfig{
      config.num_ranks, config.scheme, config.use_delegates,
      config.delegate_threshold};
  const runtime::dist_graph dgraph(graph, dconfig);
  result.delegate_count = dgraph.delegate_count();
  result.memory.partition_bytes = dgraph.memory_bytes();

  const engine_context context(config);
  const runtime::engine_config& engine = context.config;
  // The communicator borrows the solve's worker pool (null in async mode) to
  // parallelize the allreduce_map replication fan-out between engine phases.
  const runtime::communicator comm(config.num_ranks, config.costs, engine.pool);
  comm.reset_peak_buffer();

  // Step 1: Voronoi cells (Alg. 3 line 12). With assists, the state is
  // pre-seeded from shared fragments (the initial frontier shrinks to the
  // fragment surface) and the admission check drops visitors the landmark
  // bound proves non-improving — same fixed point, less relaxation.
  steiner_state state(graph.num_vertices());
  result.memory.state_bytes = state.memory_bytes() + graph.num_vertices() / 8;
  result.memory.send_filter_bytes =
      voronoi_handler::filter_bytes(dgraph, config.num_ranks);
  run_phase(result, config, runtime::phase_names::voronoi, [&] {
    assist_stats astats;
    std::atomic<std::uint64_t> pruned{0};
    runtime::phase_metrics metrics;
    if (assists.empty()) {
      metrics = compute_voronoi_cells(dgraph, seed_list, state, engine);
    } else {
      std::vector<voronoi_visitor> initial = inject_fragments(
          graph, assists.fragments, seed_list, state, &astats.preseeded_vertices);
      for (const sssp_fragment_view& frag : assists.fragments) {
        if (std::binary_search(seed_list.begin(), seed_list.end(), frag.seed)) {
          ++astats.fragments_injected;
        }
      }
      astats.frontier_visitors = initial.size();
      const voronoi_prune prune{assists.prune_upper_bound, &pruned};
      metrics = repair_voronoi_cells(dgraph, std::move(initial), state, engine,
                                     prune);
    }
    astats.pruned_visitors = pruned.load(std::memory_order_relaxed);
    if (assist_out != nullptr) *assist_out = astats;
    if (config.trace != nullptr && !assists.empty()) {
      config.trace->add_event("fragments_injected",
                              static_cast<double>(astats.fragments_injected));
      config.trace->add_event("oracle_pruned_visitors",
                              static_cast<double>(astats.pruned_visitors));
    }
    return metrics;
  });

  // Step 2a: partition-local min cross-cell edges (line 13).
  std::vector<cross_edge_map> per_rank_en;
  run_phase(result, config, runtime::phase_names::local_min_edge, [&] {
    return find_local_min_edges(dgraph, state, per_rank_en, engine);
  });

  // Step 2b: global Allreduce(MIN) (line 14). The scan and the reduction run
  // off-engine, so checkpoint at their boundary.
  if (config.budget != nullptr) config.budget->check();
  run_phase(result, config, runtime::phase_names::global_min_edge, [&] {
    return reduce_global_min_edges(
        comm, per_rank_en,
        {config.dense_distance_graph, seed_list, config.allreduce_chunk_items});
  });

  // Steps 3-6: MST, pruning, tree edges, assembly.
  finish_solve(graph, comm, config, seed_list, state, per_rank_en, result,
               capture, in_process_tree_edges(dgraph, state, engine, comm));
  return result;
}

}  // namespace detail

steiner_result solve_steiner_tree(const graph::csr_graph& graph,
                                  std::span<const graph::vertex_id> seeds,
                                  const solver_config& config) {
  return detail::solve_cold(graph, seeds, config, nullptr);
}

steiner_result solve_steiner_tree_assisted(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const solve_assists& assists, const solver_config& config,
    solve_artifacts* capture, assist_stats* stats) {
  return detail::solve_cold(graph, seeds, config, capture, assists, stats);
}

obs::query_features extract_query_features(graph::vertex_id num_vertices,
                                           std::uint64_t num_arcs,
                                           std::size_t seed_count,
                                           const solver_config& config) {
  using qf = obs::query_features;
  obs::query_features f;
  const double seeds = static_cast<double>(seed_count);
  const double log_n = std::log2(1.0 + static_cast<double>(num_vertices));
  const double log_m = std::log2(1.0 + static_cast<double>(num_arcs));
  f.x[qf::k_bias] = 1.0;
  f.x[qf::k_seeds] = seeds;
  f.x[qf::k_log_vertices] = log_n;
  f.x[qf::k_log_arcs] = log_m;
  f.x[qf::k_seeds_log_n] = seeds * log_n;
  f.x[qf::k_seeds_sq] = seeds * seeds;
  // Resolve the engine mode and worker grant exactly as engine_context will,
  // so admission-time predictions price the threads the solve actually gets.
  const bool threaded =
      config.mode == runtime::execution_mode::parallel_threads;
  std::size_t workers = 1;
  if (threaded) {
    const std::size_t want =
        config.num_threads != 0
            ? config.num_threads
            : runtime::parallel::worker_pool::default_threads();
    workers = std::min(
        want, static_cast<std::size_t>(std::max(1, config.num_ranks)));
  }
  f.x[qf::k_threaded] = threaded ? 1.0 : 0.0;
  f.x[qf::k_inv_threads] =
      1.0 / static_cast<double>(std::max<std::size_t>(1, workers));
  return f;
}

}  // namespace dsteiner::core

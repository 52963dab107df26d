// Internal pipeline pieces shared by the cold solver (steiner_solver.cpp),
// the warm-start path (warm_start.cpp) and the distributed solver
// (runtime/net/dist_solver.cpp). Not part of the public API.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/distance_graph.hpp"
#include "core/steiner_solver.hpp"
#include "core/warm_start.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/parallel/worker_pool.hpp"
#include "runtime/visitor_engine.hpp"

namespace dsteiner::core::detail {

/// Validates, deduplicates and sorts a user seed list. Throws
/// std::out_of_range on ids >= num_vertices.
[[nodiscard]] std::vector<graph::vertex_id> dedup_seeds(
    graph::vertex_id num_vertices, std::span<const graph::vertex_id> seeds);
[[nodiscard]] std::vector<graph::vertex_id> dedup_seeds(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds);

/// Engine configuration plus the persistent worker pool that backs it in
/// parallel_threads mode. One context lives for a whole solve, so every
/// phase that uses threads (Voronoi, the local min-edge scan, tree edge)
/// reuses the same ones instead of respawning per phase.
struct engine_context {
  runtime::engine_config config;
  std::optional<runtime::parallel::worker_pool> pool;

  explicit engine_context(const solver_config& solver)
      : config{solver.policy, solver.mode, solver.batch_size, solver.costs} {
    if (solver.batch_size == 0) {
      throw std::invalid_argument("solver_config: batch_size must be >= 1");
    }
    config.budget = solver.budget;  // engines poll the checkpoint per round
    if (solver.trace != nullptr) config.probe = &solver.trace->probe();
    if (solver.mode != runtime::execution_mode::parallel_threads) return;
    const std::size_t want =
        solver.num_threads != 0 ? solver.num_threads
                                : runtime::parallel::worker_pool::default_threads();
    config.num_threads =
        std::min(want, static_cast<std::size_t>(std::max(1, solver.num_ranks)));
    pool.emplace(config.num_threads);
    config.pool = &*pool;
  }

  engine_context(const engine_context&) = delete;
  engine_context& operator=(const engine_context&) = delete;
};

/// Runs one solver phase: stores `run()`'s metrics as phase `name` of
/// `result` and returns them. With a trace, the phase runs under a span: the
/// probe's phase label is stamped first (so engine samples taken during the
/// phase carry it), and the span records the phase's engine totals and the
/// cost model's simulated-seconds prediction — the per-phase half of the
/// measured-vs-model comparison.
template <typename Run>
runtime::phase_metrics& run_phase(steiner_result& result,
                                  const solver_config& config,
                                  const char* name, Run&& run) {
  obs::query_trace* const trace = config.trace;
  double start = 0.0;
  if (trace != nullptr) {
    trace->probe().set_phase(name);
    start = trace->now_seconds();
  }
  runtime::phase_metrics& metrics = result.phases.phase(name);
  metrics = run();
  if (trace != nullptr) {
    trace->close_span(name, "phase", start, metrics.rounds,
                      metrics.visitors_processed + metrics.visitors_skipped,
                      metrics.messages_total(),
                      metrics.sim_seconds(config.costs));
  }
  return metrics;
}

/// Full cold solve, optionally capturing warm-start artifacts. `assists`
/// pre-seeds phase 1 from shared SSSP fragments and/or prunes it with oracle
/// upper bounds (both output-neutral; see solve_assists); `assist_out`, when
/// non-null, reports how much work they absorbed.
[[nodiscard]] steiner_result solve_cold(const graph::csr_graph& graph,
                                        std::span<const graph::vertex_id> seeds,
                                        const solver_config& config,
                                        solve_artifacts* capture,
                                        const solve_assists& assists = {},
                                        assist_stats* assist_out = nullptr);

/// A transport's phase 6 plus its edge gather: runs Alg. 6 from the pruned
/// EN, fills `tree` with every rank's tree edges (any order) and returns the
/// phase metrics.
using tree_edge_phase = std::function<runtime::phase_metrics(
    const cross_edge_map& pruned_en, std::vector<graph::weighted_edge>& tree)>;

/// Phases 3-6 of Alg. 3 (MST, pruning, tree-edge collection, result
/// assembly), shared by the cold, warm and distributed solves; each
/// transport supplies only `tree_edges`. `per_rank_en` must hold the
/// globally-reduced EN maps (one per rank this process holds; all
/// identical); `state` the converged Voronoi labelling. Fills the remaining
/// phase metrics, the output tree, D(GS), memory totals, runs optional
/// validation (on a tree; a permitted forest is returned as is), and captures
/// (seed_list, state, pre-pruning EN) into `capture` when non-null.
void finish_solve(const graph::csr_graph& graph,
                  const runtime::communicator& comm,
                  const solver_config& config,
                  std::span<const graph::vertex_id> seed_list,
                  const steiner_state& state,
                  std::vector<cross_edge_map>& per_rank_en,
                  steiner_result& result, solve_artifacts* capture,
                  const tree_edge_phase& tree_edges);

/// The in-process transport's phase 6: Alg. 6 on `engine` over `dgraph`'s
/// simulated ranks, then a simulated allgather. The returned callable
/// borrows every argument.
[[nodiscard]] tree_edge_phase in_process_tree_edges(
    const runtime::dist_graph& dgraph, const steiner_state& state,
    const runtime::engine_config& engine, const runtime::communicator& comm);

}  // namespace dsteiner::core::detail

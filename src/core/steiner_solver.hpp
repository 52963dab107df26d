// The distributed 2-approximation Steiner minimal tree solver — the paper's
// primary contribution (Alg. 2 / Alg. 3).
//
// Pipeline (each step maps to a phase in the Figs. 3-6 breakdown):
//   1. VORONOI_CELL_ASYNC        — asynchronous multi-cell Bellman-Ford
//   2. LOCAL_MIN_DIST_EDGE_ASYNC — per-partition min cross-cell bridges
//   3. GLOBAL_MIN_DIST_EDGE_COLL — Allreduce(MIN) -> distance graph G'1
//   4. MST_SEQUENTIAL            — replicated sequential Prim -> G'2
//   5. EDGE_PRUNING_COLL         — keep only MST-selected bridges
//   6. TREE_EDGE_ASYNC           — pred walk-backs -> Steiner tree GS
//
// Guarantee: D(GS)/Dmin(G) <= 2(1 - 1/l) where l is the minimum number of
// leaves in any Steiner minimal tree (Mehlhorn's proof, §II-III). The output
// is deterministic — independent of queue policy, execution mode, rank count
// and partitioning — because all state updates are lexicographic minima.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/metrics.hpp"
#include "core/steiner_state.hpp"
#include "graph/csr_graph.hpp"
#include "obs/cost_model.hpp"
#include "graph/types.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/visitor_engine.hpp"

namespace dsteiner::obs {
class query_trace;
}  // namespace dsteiner::obs

namespace dsteiner::runtime {

/// Phase-1 schedule: strict lowest-distance-first order is the only one.
enum class growth_mode : std::uint8_t { strict_order };

}  // namespace dsteiner::runtime

namespace dsteiner::core {

struct solve_artifacts;

struct solver_config {
  /// Simulated MPI processes (the paper runs 16 per node).
  int num_ranks = 16;
  runtime::queue_policy policy = runtime::queue_policy::priority;
  runtime::execution_mode mode = runtime::execution_mode::async;
  runtime::partition_scheme scheme = runtime::partition_scheme::hash;
  bool use_delegates = true;
  std::uint64_t delegate_threshold = 1024;
  /// Visitors a rank drains per scheduling round; at least 1 (a solve
  /// rejects 0 with std::invalid_argument).
  std::size_t batch_size = 64;
  /// Worker threads for execution_mode::parallel_threads (ignored by the
  /// other modes): 0 = one per hardware thread, capped at num_ranks. The
  /// solve output and simulated metrics are invariant in this value — only
  /// wall time changes (the threaded engine's determinism guarantee).
  std::size_t num_threads = 0;
  runtime::cost_model costs{};

  /// Phase 1 always runs in strict priority order; this single-value field
  /// only keeps callers that pin `growth_mode::strict_order` compiling.
  runtime::growth_mode growth = runtime::growth_mode::strict_order;

  /// Distance-graph reduction: sparse map merge (default) or the paper's
  /// dense (|S| choose 2) buffer; either path optionally chunked (§V-F).
  bool dense_distance_graph = false;
  std::size_t allreduce_chunk_items = 0;

  /// When false (default), seeds in different components raise
  /// std::runtime_error; when true the solver returns a Steiner forest and
  /// flags spans_all_seeds = false.
  bool allow_disconnected_seeds = false;

  /// Run validate_steiner_tree on the output (cheap; asserts invariants).
  bool validate = false;

  /// Distributed-runtime telemetry plane (runtime/net/): when true, every
  /// rank emits one telemetry frame per superstep boundary to rank 0, which
  /// merges all ranks' samples into net_solve_report::cluster. Pure
  /// observation — nothing is ever read back, so telemetry-on and -off
  /// distributed solves are bit-identical (under test in test_net); only
  /// traffic totals move, by the telemetry frames' own bytes. Excluded from
  /// the service's config hash for the same reason as `trace`.
  bool net_telemetry = true;

  /// Cooperative cancellation/deadline budget, polled at solver checkpoints
  /// (engine rounds / superstep barriers and phase boundaries); a tripped
  /// budget unwinds the solve via util::operation_cancelled with all partial
  /// work discarded. Null = never stops. QoS only — it cannot change the
  /// output tree, so it does not participate in the service's config hash.
  /// The pointee must outlive the solve (the service stores it in the
  /// request's handle state).
  const util::run_budget* budget = nullptr;

  /// Per-query span trace (src/obs/). When non-null, solver phases open
  /// spans and the engines record per-superstep samples into the trace's
  /// probe. Pure observation — the solver never reads anything back from
  /// the trace, so traced and untraced solves are bit-identical. Excluded
  /// from the service's config hash for the same reason as `budget`. Must
  /// outlive the solve; the solve is the sole span writer while it runs.
  obs::query_trace* trace = nullptr;
};

struct steiner_result {
  std::vector<graph::weighted_edge> tree_edges;  ///< GS, canonical u < v per edge
  graph::weight_t total_distance = 0;            ///< D(GS)
  std::size_t num_seeds = 0;                     ///< |S| after deduplication
  bool spans_all_seeds = true;

  runtime::phase_breakdown phases;  ///< per-phase wall/simulated time + messages
  memory_accounting memory;

  std::size_t distance_graph_edges = 0;  ///< |E'1|
  std::uint64_t delegate_count = 0;      ///< high-degree vertices split across ranks

  [[nodiscard]] double wall_seconds() const { return phases.total().wall_seconds; }
  [[nodiscard]] std::uint64_t total_messages() const {
    return phases.total().messages_total();
  }
};

/// Runs Alg. 3 on `graph` for `seeds`. Seeds are deduplicated; each must be a
/// valid vertex id. |S| <= 1 yields an empty tree.
[[nodiscard]] steiner_result solve_steiner_tree(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const solver_config& config = {});

/// Cross-query assists for a cold solve (the service's shared distance
/// substrate, service/distshare/). Both members are *output-neutral by
/// construction* — fragments only pre-seed state with achievable labels,
/// bounds only drop provably non-improving visitors — so, like
/// solver_config::budget, they do not participate in the service's config
/// hash and assisted/unassisted solves share one cache entry. The spans must
/// outlive the solve.
struct solve_assists {
  /// Settled per-seed fragments from earlier solves on the *same* graph
  /// content. Fragments whose seed is not in this solve's canonical seed set
  /// are ignored.
  std::span<const sssp_fragment_view> fragments;
  /// Per-vertex upper bound on min_s d1(s, v) for this exact graph and seed
  /// set (landmark oracle). Empty disables pruning.
  std::span<const graph::weight_t> prune_upper_bound;

  [[nodiscard]] bool empty() const noexcept {
    return fragments.empty() && prune_upper_bound.empty();
  }
};

/// How much phase-1 work the assists actually absorbed.
struct assist_stats {
  std::size_t fragments_injected = 0;   ///< fragments whose seed matched
  std::size_t preseeded_vertices = 0;   ///< labels adopted before relaxation
  std::size_t frontier_visitors = 0;    ///< initial visitors injected
  std::uint64_t pruned_visitors = 0;    ///< admission drops by the bound
};

/// Cold solve pre-seeded from `assists` — bit-identical to
/// solve_steiner_tree(graph, seeds, config); only the phase-1 work (and
/// therefore the phase metrics) shrinks. `capture`, when non-null, receives
/// the solve's warm-start artifacts (solve_artifacts); with empty assists
/// this is a plain cold solve that also captures them.
[[nodiscard]] steiner_result solve_steiner_tree_assisted(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const solve_assists& assists, const solver_config& config = {},
    solve_artifacts* capture = nullptr, assist_stats* stats = nullptr);

/// Admission-time feature extraction for the learned admission cost model
/// (obs::cost_model): fills the analytic features knowable before a solve
/// runs — |S|, graph scale, their interaction terms, and the engine
/// mode/worker grant resolved exactly as engine_context will resolve them.
/// O(1), no CSR access (callers pass epoch header counts, never materialize
/// an overlay for this). Service-side features (overlay fraction,
/// warm/fragment state) are filled in by the caller.
[[nodiscard]] obs::query_features extract_query_features(
    graph::vertex_id num_vertices, std::uint64_t num_arcs,
    std::size_t seed_count, const solver_config& config);

}  // namespace dsteiner::core

// The distributed Steiner solver over a comm_backend mesh: Alg. 3 with every
// rank a real participant owning one hash-partition shard of the vertex
// state and exchanging visitor batches as wire frames.
//
// Net solves run core's code, not a copy. Phases 1 and 6 are core's
// voronoi_handler and tree_edge_handler on superstep_engine (the Handler
// contract over frames), so vertex delegates and the queue policy apply as
// in-process; phases 3-6 and result assembly
// (MST, pruning, validation) are core's shared tail. Output contract: the
// tree is bit-identical to core::solve_steiner_tree for any world size and
// backend — the lexicographic (distance, src, pred) labelling has a unique
// fixed point, bridges tie-break on (distance, u, v) and the edge list is
// sorted, so any convergent schedule lands on the same bytes.
//
// Phase 2 is core's scan_cross_edges, as on every transport. Its owner needs
// each neighbour's label, so a ghost sync first pushes every owned boundary
// vertex's converged (src, d1) to each rank owning one of its neighbours.
// Shipping Alg. 5's probes instead would send one >= 40-byte probe per cut
// edge; on FRS over three ranks that is ~9 MB per query against ~0.84 MB of
// 24-byte ghost labels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/net/cluster_telemetry.hpp"
#include "runtime/net/comm_backend.hpp"

namespace dsteiner::runtime::net {

/// One superstep's traffic through this rank: what the wire actually carried
/// versus what the perf model predicts for the same payload — the per-step
/// resolution behind the dsteiner_comm_bytes_{measured,modelled} histograms.
struct net_superstep_sample {
  std::uint32_t superstep = 0;
  /// Wire bytes sent this superstep (headers, markers and votes included).
  std::uint64_t bytes_measured = 0;
  /// Perf-model prediction: payload records x record size, no framing.
  std::uint64_t bytes_modelled = 0;
};

/// Per-rank telemetry from one distributed solve.
struct net_solve_report {
  int rank = 0;
  int world = 1;
  std::uint64_t supersteps = 0;   ///< BSP steps across phases 1 and 6
  std::uint64_t vote_rounds = 0;  ///< termination rounds: one per superstep
  std::uint64_t ghost_labels_sent = 0;
  std::uint64_t ghost_labels_applied = 0;
  std::uint64_t bytes_modelled = 0;  ///< sum over samples
  net_stats stats;                   ///< final backend counters
  std::vector<net_superstep_sample> samples;
  /// Telemetry samples this rank emitted (config.net_telemetry; one per
  /// superstep boundary plus one per one-shot exchange phase).
  std::vector<rank_telemetry> telemetry;
  /// Rank 0 only: every rank's telemetry merged into canonical order — the
  /// cluster observability plane's product. Empty on other ranks and when
  /// telemetry is off.
  cluster_trace cluster;
};

/// Runs one rank of the distributed solve over `net`. Every rank of the mesh
/// must call this with the same graph content, seed list and config —
/// the graph is replicated (each process loads it deterministically), the
/// *state* is partitioned by hash across `net.world_size()` ranks. Blocks
/// until the whole mesh converges; every rank returns the complete (identical)
/// result. Throws util::operation_cancelled when the folded vote carries a
/// cancel bit, and wire_error if the mesh dies mid-solve.
[[nodiscard]] core::steiner_result solve_rank(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const core::solver_config& config, comm_backend& net,
    net_solve_report* report = nullptr);

/// Convenience harness: runs `world` ranks over an in-process loopback mesh
/// (one thread per rank) and returns rank 0's result. `reports`, when
/// non-null, receives all ranks' telemetry in rank order. This is the
/// service's --distributed execution path and the reference side of the
/// TCP bit-identity tests.
[[nodiscard]] core::steiner_result solve_loopback(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const core::solver_config& config, int world,
    std::vector<net_solve_report>* reports = nullptr);

}  // namespace dsteiner::runtime::net

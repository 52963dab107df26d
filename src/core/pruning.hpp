// Global edge pruning (paper Alg. 5, EDGE_PRUNING_COLL; Alg. 3 line 18).
//
// Marks every cross-cell edge "deleted" except those whose cell pair was
// selected by the MST G'2, then charges the paper's second
// MPI_Allreduce(MPI_MIN) on endpoint ids. The EN maps arrive globally
// reduced, so exactly one bridge already survives per cell pair (multiple
// bridges with identical distance can tie; the (distance, u, v) order
// resolved them deterministically in the first reduction).
#pragma once

#include <span>
#include <vector>

#include "core/distance_graph.hpp"
#include "core/mst_prim.hpp"
#include "runtime/comm.hpp"
#include "runtime/perf_model.hpp"

namespace dsteiner::core {

/// Prunes per-rank EN maps (at least one; every map identical) down to the
/// MST-selected pairs and charges the uniqueness collective. Returns the
/// pruning-phase metrics.
[[nodiscard]] runtime::phase_metrics prune_cross_edges(
    const runtime::communicator& comm,
    std::vector<cross_edge_map>& per_rank_en,
    std::span<const seed_pair> mst_pairs);

}  // namespace dsteiner::core

// Rank 0's merged view of a distributed solve's telemetry plane.
//
// Every rank emits one rank_telemetry frame per superstep boundary (and one
// per one-shot exchange phase); ranks != 0 push theirs to rank 0, whose
// peer_channels divert them to a sink as they arrive interleaved with data
// frames. This module turns that unordered pile into something usable:
//
//   * merge_cluster_samples canonicalises the samples into execution order
//     (phase, superstep, rank) — deterministic for any arrival interleaving,
//     backend, or repeat run, which is what the merge-determinism tests pin;
//   * straggler_rows attributes each superstep to its critical-path rank and
//     quantifies skew (max/median compute) and the comm-wait share — the
//     per-superstep answer to "which rank made this step slow, and was it
//     compute imbalance or communication?";
//   * summarize_cluster folds the rows into whole-solve headline numbers for
//     trace_summary / statusz;
//   * render_cluster_json serialises everything for the service's /clusterz
//     debug route and the dsteiner-rank launcher's --clusterz flag.
//
// Like the rest of the observability stack this is pure observation: nothing
// here is ever read back by the solver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/net/frame.hpp"

namespace dsteiner::runtime::net {

/// All ranks' telemetry for one distributed solve, in canonical order.
struct cluster_trace {
  int world = 1;
  std::vector<rank_telemetry> samples;  ///< sorted (phase, superstep, rank)
};

/// Per-superstep straggler/skew attribution over one (phase, superstep) group
/// of cluster samples.
struct straggler_row {
  std::uint8_t phase = 0;  ///< a telemetry_phase value
  std::uint32_t superstep = 0;
  int critical_rank = -1;  ///< rank with max total time (ties: lowest rank)
  double max_total_seconds = 0.0;     ///< the critical rank's wall share
  double max_compute_seconds = 0.0;
  double median_compute_seconds = 0.0;
  double compute_skew = 1.0;  ///< max/median compute (1.0 when median is 0)
  double comm_wait_fraction = 0.0;  ///< (send+recv) share of group time
};

/// Whole-solve headline numbers folded from the straggler rows.
struct cluster_summary {
  int world = 1;
  std::uint64_t supersteps = 0;  ///< straggler rows (superstep groups)
  int critical_rank = -1;  ///< most frequent critical-path rank (ties: lowest)
  std::uint64_t critical_supersteps = 0;  ///< supersteps that rank dominated
  double max_compute_skew = 1.0;          ///< worst per-superstep skew
  double comm_wait_fraction = 0.0;        ///< comm share of all rank time
};

/// Canonicalises raw samples (any arrival order) into a cluster_trace sorted
/// by (phase, superstep, rank).
[[nodiscard]] cluster_trace merge_cluster_samples(
    int world, std::vector<rank_telemetry> samples);

[[nodiscard]] std::vector<straggler_row> straggler_rows(
    const cluster_trace& trace);

[[nodiscard]] cluster_summary summarize_cluster(const cluster_trace& trace);

/// JSON document for /clusterz and `dsteiner_rank --clusterz`: summary plus
/// one straggler row per superstep group.
[[nodiscard]] std::string render_cluster_json(const cluster_trace& trace);

}  // namespace dsteiner::runtime::net

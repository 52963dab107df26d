// Landmark distance oracle — cheap upper bounds on graph distances.
//
// K landmark vertices, each with a full SSSP distance table, bound any pair
// (u, v) from above by the triangle inequality:
//
//   d(u,v)  <=  min_l d(l,u) + d(l,v)
//
// One serving-layer consumer, phase-1 pruning: for a query's seed set S,
// ub[v] = min_l (min_s d(l,s) + d(l,v)) upper-bounds v's final Voronoi
// distance, so a frontier visitor proposing a strictly larger distance is
// provably non-improving and can be dropped at admission
// (core::voronoi_prune) — output preserved, relaxation cascades cut.
//
// Landmarks are degree/ecc-sampled: the first is the highest-degree vertex,
// the rest maximize the minimum distance to the landmarks already chosen
// (farthest-point sampling, which also lands one landmark per component).
// Trees build lazily in waves on the parallel runtime's worker pool, with
// cooperative cancellation checkpoints between waves.
//
// Epoch invalidation rides the existing edge-delta machinery instead of
// rebuilding eagerly: lowering/enabling edges can only *shrink* true
// distances, so stale tables remain valid upper bounds through lowered-only
// deltas. The bounds become unusable only after a raised or disabled edit,
// and the next build restores them.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/types.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::service::distshare {

class landmark_oracle {
 public:
  struct config {
    std::size_t num_landmarks = 8;  ///< clamped to |V|
    /// Worker threads for the build waves (0 = hardware concurrency).
    std::size_t build_threads = 0;
  };

  struct stats_data {
    std::uint64_t builds = 0;
    bool built = false;
    bool upper_valid = false;  ///< UBs usable against the current epoch
    std::size_t landmarks = 0;
    std::uint64_t built_fingerprint = 0;
  };

  landmark_oracle() : landmark_oracle(config{}) {}
  explicit landmark_oracle(config cfg);

  /// Registers an epoch advance: `delta` is the applied edit batch deriving
  /// the new epoch (epoch_graph::delta_from_parent). Raised/disabled edits
  /// invalidate the upper bounds; bounds for the exact built fingerprint
  /// always stay usable (pinned queries on the build epoch keep full
  /// pruning).
  void advance_epoch(std::uint64_t new_fingerprint,
                     std::span<const graph::applied_edge_edit> delta);

  /// Blocking (re)build against `g`, whose content fingerprint is `fp`.
  /// Thread-safe and idempotent: a racing build for the same fingerprint
  /// returns without duplicating work. Throws util::operation_cancelled when
  /// `budget` trips between build waves.
  void build(const graph::csr_graph& g, std::uint64_t fp,
             const util::run_budget* budget = nullptr);

  /// True when a build against `current_fp` would improve the oracle (never
  /// built, or a raised edit left the bounds stale for that epoch).
  [[nodiscard]] bool needs_build(std::uint64_t current_fp) const;

  /// Per-vertex upper bounds on min_{s in seeds} d(s, v) for the epoch with
  /// content fingerprint `fp` — the voronoi_prune input. Empty when the
  /// upper side is unusable for that epoch. `seeds` must be canonical.
  [[nodiscard]] std::vector<graph::weight_t> prune_bounds(
      std::uint64_t fp, std::span<const graph::vertex_id> seeds) const;

  [[nodiscard]] stats_data stats() const;

 private:
  struct tables {
    std::uint64_t fingerprint = 0;
    std::vector<graph::vertex_id> landmarks;
    /// dist[l][v] = d(landmarks[l], v); k_inf_distance if unreachable.
    std::vector<std::vector<graph::weight_t>> dist;
  };
  using tables_ptr = std::shared_ptr<const tables>;

  /// Snapshot whose upper bounds hold for the given epoch, else nullptr.
  [[nodiscard]] tables_ptr usable(std::uint64_t fp) const;

  config config_;
  mutable std::mutex mutex_;
  tables_ptr tables_;          ///< swapped whole on rebuild
  std::uint64_t current_fp_ = 0;
  bool upper_valid_ = false;   ///< vs current_fp_
  std::uint64_t builds_ = 0;
};

}  // namespace dsteiner::service::distshare

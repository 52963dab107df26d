// Shared SSSP fragment store — cross-query reuse of settled Voronoi cells.
//
// The solver's dominant cost is growing per-seed Voronoi cells (phase 1), yet
// concurrent queries with overlapping seed sets re-grow the shared cells from
// scratch: warm starts reuse a *whole* donor solve of the same seed set, but
// two different seed sets that merely share members get nothing from them.
// The fragment store closes that gap at per-seed granularity, and it is how
// the service reuses phase-1 work across seed-set edits. A completed solve publishes, for each of its
// seeds, the settled cell (vertex/distance/pred triples, truncated to a
// vertex budget — distance truncation is pred-closed because weights are
// strictly positive), keyed by (epoch content fingerprint, seed). A later
// query borrows the fragments of whichever of its seeds are present and
// pre-seeds its phase 1 from them (core::inject_fragments): the relaxation
// frontier shrinks to the fragment surface, and the solve stays bit-identical
// to cold because fragment labels are achievable labels of the same graph.
//
// Sharded like the result cache (per-shard mutex + index), ref-counted
// (borrowers hold shared_ptrs; eviction never invalidates an in-flight
// solve), bounded by a memory budget with cost-aware eviction: the victim is
// the fragment with the lowest retention score
//
//   (1 + times borrowed) x recompute cost (seconds of the producing solve,
//                                          attributed by cell share)
//
// so hot, expensive-to-recompute cells survive bursts of one-off queries.
// Epoch retirement purges fragments wholesale when their epoch leaves the
// service's live window, mirroring result-cache/donor retirement.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/steiner_state.hpp"
#include "graph/types.hpp"
#include "util/hash.hpp"

namespace dsteiner::service::distshare {

struct fragment_store_config {
  std::size_t shards = 4;
  /// Total fragment bytes across all shards (split evenly per shard).
  std::uint64_t memory_budget_bytes = 64ull << 20;
  /// Per-fragment truncation: keep at most this many vertices, closest
  /// first (0 = whole cell). Truncation keeps the distance-sorted prefix,
  /// which is pred-closed, so borrowed labels always carry valid witnesses.
  std::size_t max_fragment_vertices = 1u << 16;
  /// Cells smaller than this are not worth storing (a bootstrap visitor
  /// regrows them as fast as an injection would).
  std::size_t min_fragment_vertices = 2;
};

struct fragment_store_stats {
  std::uint64_t published = 0;   ///< fragments inserted (including refreshes)
  std::uint64_t refreshed = 0;   ///< publishes that replaced an existing entry
  std::uint64_t hits = 0;        ///< borrow probes that found a fragment
  std::uint64_t misses = 0;      ///< borrow probes that did not
  std::uint64_t evictions = 0;   ///< memory-budget victims
  std::uint64_t retired = 0;     ///< purged by epoch retirement
  std::uint64_t bytes_in_use = 0;
  std::size_t fragments = 0;     ///< current occupancy
};

/// One settled, truncated per-seed cell. Immutable after construction except
/// the borrow counter (the reuse half of the eviction score).
struct sssp_fragment {
  graph::vertex_id seed = 0;
  std::uint64_t graph_fingerprint = 0;  ///< epoch content fp the labels match
  std::uint64_t epoch_id = 0;
  std::vector<graph::vertex_id> vertices;  ///< sorted by (distance, id)
  std::vector<graph::weight_t> distance;
  std::vector<graph::vertex_id> pred;
  graph::weight_t radius = 0;  ///< largest distance retained
  /// Attributed share of the producing solve's wall time — what a consumer
  /// saves, and the cost half of the eviction score.
  double recompute_cost_seconds = 0.0;
  mutable std::atomic<std::uint64_t> borrows{0};

  [[nodiscard]] core::sssp_fragment_view view() const noexcept {
    return {seed, vertices, distance, pred};
  }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return sizeof(sssp_fragment) +
           vertices.size() * (sizeof(graph::vertex_id) * 2 +
                              sizeof(graph::weight_t));
  }
  [[nodiscard]] double retention_score() const noexcept {
    return (1.0 + static_cast<double>(
                      borrows.load(std::memory_order_relaxed))) *
           recompute_cost_seconds;
  }
};

using fragment_ptr = std::shared_ptr<const sssp_fragment>;

class sssp_fragment_store {
 public:
  explicit sssp_fragment_store(fragment_store_config config = {});

  sssp_fragment_store(const sssp_fragment_store&) = delete;
  sssp_fragment_store& operator=(const sssp_fragment_store&) = delete;

  /// Splits a converged labelling into per-seed fragments and publishes each
  /// cell of at least min_fragment_vertices members (truncated to
  /// max_fragment_vertices closest). `solve_seconds` is apportioned across
  /// the cells by member share. A re-publish of an existing (fingerprint,
  /// seed) replaces the fragment but carries its borrow count forward, so a
  /// hot cell does not lose its eviction shield on refresh. Returns the
  /// number of fragments published.
  std::size_t publish_from_state(std::uint64_t graph_fingerprint,
                                 std::uint64_t epoch_id,
                                 const core::steiner_state& state,
                                 std::span<const graph::vertex_id> seeds,
                                 double solve_seconds);

  /// Fragment for (fingerprint, seed), or nullptr. A hit bumps the reuse
  /// counter; the returned pointer stays valid across eviction/retirement.
  [[nodiscard]] fragment_ptr borrow(std::uint64_t graph_fingerprint,
                                    graph::vertex_id seed);

  /// Side-effect-free presence probe for (fingerprint, seed): no borrow
  /// bump, no hit/miss accounting. Admission-time feature extraction asks
  /// "would this solve get fragment assists?" without perturbing the
  /// eviction scores or the store's stats.
  [[nodiscard]] bool has(std::uint64_t graph_fingerprint,
                         graph::vertex_id seed) const noexcept;

  /// Purges every fragment with epoch_id < first_live. Returns count purged.
  std::size_t retire_epochs_before(std::uint64_t first_live);

  [[nodiscard]] fragment_store_stats snapshot() const;
  void clear();

  [[nodiscard]] const fragment_store_config& config() const noexcept {
    return config_;
  }

 private:
  struct key {
    std::uint64_t fingerprint = 0;
    graph::vertex_id seed = 0;
    friend bool operator==(const key&, const key&) = default;
  };
  struct key_hash {
    [[nodiscard]] std::size_t operator()(const key& k) const noexcept {
      return static_cast<std::size_t>(
          util::hash_combine(k.fingerprint, k.seed));
    }
  };
  struct shard {
    mutable std::mutex mutex;
    std::unordered_map<key, fragment_ptr, key_hash> index;
    std::uint64_t bytes = 0;
    fragment_store_stats counters;  ///< bytes_in_use/fragments unused here
  };

  [[nodiscard]] shard& shard_for(graph::vertex_id seed) noexcept;
  /// Inserts under the shard lock, then evicts lowest-retention fragments
  /// until the shard is back under its budget slice.
  void insert(const key& k, fragment_ptr fragment);

  fragment_store_config config_;
  std::uint64_t per_shard_budget_ = 0;
  std::vector<std::unique_ptr<shard>> shards_;
};

}  // namespace dsteiner::service::distshare

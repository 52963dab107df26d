// Compressed sparse row (CSR) weighted graph — the cache-friendly structure
// the paper uses for its sequential baselines ("cache friendly CSR graph data
// structure", §V-G) and that backs each distributed partition here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace dsteiner::graph {

/// Immutable CSR adjacency with per-edge weights. Directed representation:
/// undirected graphs carry both arc directions (2|E| entries).
class csr_graph {
 public:
  csr_graph() = default;

  /// Builds from a (not necessarily canonical) edge list. The input is copied
  /// and counting-sorted by source; parallel edges and self-loops are
  /// preserved as given — call edge_list::canonicalize() first if undesired.
  explicit csr_graph(const edge_list& list);

  /// Adopts pre-built CSR arrays whose rows are already sorted by
  /// (target, weight) — the fast path for epoch materialization, which patches
  /// a parent CSR's rows instead of round-tripping through an edge list.
  /// Preconditions (asserted in debug builds): offsets is a monotone prefix
  /// array of size |V|+1 ending at targets.size(), targets/weights have equal
  /// size, and each row obeys the (target, weight) sort order. The structural
  /// fingerprint is computed exactly as the edge-list constructor would, so
  /// identical content yields an identical fingerprint regardless of the
  /// construction path.
  [[nodiscard]] static csr_graph from_sorted_parts(
      std::vector<std::uint64_t> offsets, std::vector<vertex_id> targets,
      std::vector<weight_t> weights);

  [[nodiscard]] vertex_id num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<vertex_id>(offsets_.size() - 1);
  }

  /// Number of stored arcs (2|E| for symmetric graphs).
  [[nodiscard]] std::uint64_t num_arcs() const noexcept { return targets_.size(); }

  [[nodiscard]] std::uint64_t degree(vertex_id v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] std::span<const vertex_id> neighbors(vertex_id v) const noexcept {
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::span<const weight_t> weights(vertex_id v) const noexcept {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  /// Weight of arc (u, v) if present; minimum across parallel arcs.
  [[nodiscard]] std::optional<weight_t> edge_weight(vertex_id u,
                                                    vertex_id v) const noexcept;

  [[nodiscard]] bool has_edge(vertex_id u, vertex_id v) const noexcept {
    return edge_weight(u, v).has_value();
  }

  /// Bytes held by the CSR arrays (used by the Fig. 8 memory accounting).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

  /// Structural fingerprint over (offsets, targets, weights), computed once at
  /// construction. Two graphs with equal fingerprints are treated as identical
  /// by the query service's result cache and warm-start donor matching.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Sum of all arc weights, accumulated once at construction beside the
  /// fingerprint. 128 bits: |arcs| and each weight fit in 64, so the sum
  /// cannot overflow.
  [[nodiscard]] unsigned __int128 total_arc_weight() const noexcept {
    return total_arc_weight_;
  }

  /// Raw arrays, exposed for kernels that iterate all arcs edge-centrically.
  [[nodiscard]] const std::vector<std::uint64_t>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<vertex_id>& targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] const std::vector<weight_t>& arc_weights() const noexcept {
    return weights_;
  }

 private:
  std::vector<std::uint64_t> offsets_;  // size |V|+1
  std::vector<vertex_id> targets_;      // size = num_arcs
  std::vector<weight_t> weights_;       // size = num_arcs
  std::uint64_t fingerprint_ = 0;
  unsigned __int128 total_arc_weight_ = 0;
};

}  // namespace dsteiner::graph

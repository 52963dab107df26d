// Partitioned view of a CSR graph, including HavoqGT-style vertex delegates.
//
// HavoqGT's key scalability device for scale-free graphs (§IV motivation,
// [19]) is the *vertex delegate*: a vertex whose degree exceeds a threshold
// has its edge list distributed across all ranks instead of living solely on
// its owner. The owner (the "controller") keeps the vertex state; when the
// vertex scatters to its neighbours, the controller broadcasts one relay per
// rank and each rank enumerates only its slice of the adjacency — turning an
// O(degree) hotspot on one rank into O(degree / p) work everywhere.
//
// Here the underlying CSR is shared process memory, so a "slice" is the
// arithmetic subsequence of arc indices congruent to the rank id modulo p;
// no arcs are copied, but all work accounting and message routing honour the
// slice discipline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "runtime/partition.hpp"

namespace dsteiner::runtime {

struct dist_graph_config {
  int num_ranks = 16;
  partition_scheme scheme = partition_scheme::hash;
  bool use_delegates = true;
  /// Vertices with degree >= threshold become delegates. 0 disables.
  std::uint64_t delegate_threshold = 1024;
};

class dist_graph {
 public:
  dist_graph(const graph::csr_graph& graph, const dist_graph_config& config);

  [[nodiscard]] const graph::csr_graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const partitioner& parts() const noexcept { return parts_; }
  [[nodiscard]] int num_ranks() const noexcept { return parts_.num_ranks(); }
  [[nodiscard]] int owner(graph::vertex_id v) const noexcept { return parts_.owner(v); }

  [[nodiscard]] bool is_delegate(graph::vertex_id v) const noexcept {
    return !delegate_.empty() && delegate_[v];
  }
  [[nodiscard]] std::uint64_t delegate_count() const noexcept { return delegate_count_; }

  /// Vertices owned by `rank`, ascending.
  [[nodiscard]] std::span<const graph::vertex_id> local_vertices(int rank) const noexcept {
    return local_vertices_[static_cast<std::size_t>(rank)];
  }

  /// Applies fn(target, weight) to every arc of v (ownership-agnostic).
  template <typename Fn>
  void for_each_arc(graph::vertex_id v, Fn&& fn) const {
    const auto nbrs = graph_->neighbors(v);
    const auto wts = graph_->weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) fn(nbrs[i], wts[i]);
  }

  /// Applies fn(target, weight) to the arcs of delegate (or plain) vertex v
  /// that belong to `rank`'s slice: arc positions congruent to rank mod p.
  template <typename Fn>
  void for_each_arc_in_slice(graph::vertex_id v, int rank, Fn&& fn) const {
    const auto nbrs = graph_->neighbors(v);
    const auto wts = graph_->weights(v);
    const auto p = static_cast<std::size_t>(num_ranks());
    for (std::size_t i = static_cast<std::size_t>(rank); i < nbrs.size(); i += p) {
      fn(nbrs[i], wts[i]);
    }
  }

  /// Number of ranks holding a non-empty slice of v's adjacency.
  [[nodiscard]] int slice_rank_count(graph::vertex_id v) const noexcept {
    const std::uint64_t deg = graph_->degree(v);
    const auto p = static_cast<std::uint64_t>(num_ranks());
    return static_cast<int>(deg < p ? deg : p);
  }

  /// Bytes of per-rank bookkeeping (local vertex lists + delegate bitmap);
  /// contributes to the Fig. 8 "algorithm state" bar.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

 private:
  const graph::csr_graph* graph_;
  partitioner parts_;
  std::vector<std::vector<graph::vertex_id>> local_vertices_;  // per rank
  std::vector<bool> delegate_;
  std::uint64_t delegate_count_ = 0;
};

}  // namespace dsteiner::runtime

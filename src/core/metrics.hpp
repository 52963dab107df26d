// Memory accounting for the Fig. 8 experiment: cluster-wide peak usage split
// into the in-memory graph vs. algorithm state (vertex states, communication
// buffers and messages).
#pragma once

#include <cstdint>

namespace dsteiner::core {

struct memory_accounting {
  std::uint64_t graph_bytes = 0;        ///< CSR arrays (the HavoqGT binary graph)
  std::uint64_t state_bytes = 0;        ///< per-vertex src/pred/d1 + in-tree bits
  std::uint64_t partition_bytes = 0;    ///< per-rank bookkeeping (owner lists, delegates)
  std::uint64_t queue_peak_bytes = 0;   ///< max visitor-queue occupancy across phases
  std::uint64_t send_filter_bytes = 0;  ///< Alg. 4 sender-side dominance rows
  std::uint64_t distance_graph_bytes = 0;  ///< EN maps + G'1 (+ dense buffers)
  std::uint64_t collective_buffer_bytes = 0;  ///< peak per-rank collective buffer
  std::uint64_t tree_bytes = 0;         ///< output ES

  /// Everything except the graph itself (the paper's "Application Runtime"
  /// bar).
  [[nodiscard]] std::uint64_t algorithm_bytes() const noexcept {
    return state_bytes + partition_bytes + queue_peak_bytes +
           send_filter_bytes + distance_graph_bytes + collective_buffer_bytes +
           tree_bytes;
  }

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return graph_bytes + algorithm_bytes();
  }
};

}  // namespace dsteiner::core

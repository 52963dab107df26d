// Mutable edge-list representation used while constructing graphs; the CSR
// structure (csr_graph.hpp) is built from a finalized edge list.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace dsteiner::graph {

/// A bag of weighted directed edges plus the implied vertex-count bound.
class edge_list {
 public:
  edge_list() = default;
  explicit edge_list(vertex_id num_vertices) : num_vertices_(num_vertices) {}

  void add_edge(vertex_id u, vertex_id v, weight_t w);

  /// Adds both (u,v,w) and (v,u,w).
  void add_undirected_edge(vertex_id u, vertex_id v, weight_t w);

  /// Ensures every edge (u,v) has a reverse (v,u) with the same weight.
  /// Table III: "we create symmetric edges (2|E| edges)".
  void symmetrize();

  /// Drops self-loops and, among parallel edges, keeps the minimum weight
  /// (ties broken deterministically). Sorts edges by (source, target).
  void canonicalize();

  [[nodiscard]] vertex_id num_vertices() const noexcept { return num_vertices_; }
  void set_num_vertices(vertex_id n) noexcept { num_vertices_ = n; }

  [[nodiscard]] std::size_t size() const noexcept { return edges_.size(); }
  [[nodiscard]] bool empty() const noexcept { return edges_.empty(); }

  [[nodiscard]] const std::vector<weighted_edge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] std::vector<weighted_edge>& edges() noexcept { return edges_; }

  /// Text format: one "u v [w]" line per edge (w defaults to 1); lines
  /// starting with '#' are comments. Throws std::runtime_error on a field
  /// that is not an unsigned decimal, an extra field, or a vertex id of
  /// k_no_vertex - 1 or above.
  static edge_list from_stream(std::istream& in);
  void to_stream(std::ostream& out) const;

  static edge_list load_text(const std::string& path);
  void save_text(const std::string& path) const;

 private:
  std::vector<weighted_edge> edges_;
  vertex_id num_vertices_ = 0;
};

}  // namespace dsteiner::graph

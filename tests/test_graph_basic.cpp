// Unit tests for the graph substrate: edge lists, CSR, union-find, stats,
// DOT export.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/csr_graph.hpp"
#include "graph/dot_export.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph_stats.hpp"
#include "graph/union_find.hpp"

namespace {

using namespace dsteiner;
using graph::edge_list;
using graph::csr_graph;

TEST(EdgeList, AddTracksVertexCount) {
  edge_list list;
  list.add_edge(3, 7, 2);
  EXPECT_EQ(list.num_vertices(), 8u);
  EXPECT_EQ(list.size(), 1u);
}

TEST(EdgeList, UndirectedAddsBothDirections) {
  edge_list list;
  list.add_undirected_edge(0, 1, 5);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.edges()[0].source, 0u);
  EXPECT_EQ(list.edges()[1].source, 1u);
  EXPECT_EQ(list.edges()[1].weight, 5u);
}

TEST(EdgeList, SymmetrizeCreatesReverseArcs) {
  edge_list list;
  list.add_edge(0, 1, 3);
  list.add_edge(2, 0, 4);
  list.symmetrize();
  EXPECT_EQ(list.size(), 4u);
  const csr_graph g(list);
  EXPECT_EQ(g.edge_weight(1, 0), 3u);
  EXPECT_EQ(g.edge_weight(0, 2), 4u);
}

TEST(EdgeList, CanonicalizeDropsSelfLoopsAndParallel) {
  edge_list list;
  list.add_edge(1, 1, 9);   // self loop
  list.add_edge(0, 1, 7);
  list.add_edge(0, 1, 3);   // parallel, lighter
  list.add_edge(0, 1, 12);  // parallel, heavier
  list.canonicalize();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list.edges()[0].weight, 3u);  // kept the minimum
}

TEST(EdgeList, StreamRoundTrip) {
  edge_list list;
  list.add_undirected_edge(0, 1, 5);
  list.add_undirected_edge(1, 2, 7);
  std::stringstream buffer;
  list.to_stream(buffer);
  const edge_list loaded = edge_list::from_stream(buffer);
  ASSERT_EQ(loaded.size(), list.size());
  EXPECT_EQ(loaded.edges(), list.edges());
}

TEST(EdgeList, ParsesCommentsAndDefaultWeight) {
  std::stringstream in("# comment\n0 1\n1 2 9\n");
  const edge_list list = edge_list::from_stream(in);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.edges()[0].weight, 1u);
  EXPECT_EQ(list.edges()[1].weight, 9u);
}

TEST(EdgeList, MalformedLineThrows) {
  std::stringstream in("zero one\n");
  EXPECT_THROW((void)edge_list::from_stream(in), std::runtime_error);
}

TEST(EdgeList, RejectsMalformedLines) {
  for (const char* line :
       {"1 2 abc", "1 2 -5", "-1 2 3", "1 2 3 4", "1 2 3abc", "1 2x 3",
        "18446744073709551615 0 3", "0 18446744073709551614 3",
        "1 2 18446744073709551616"}) {
    std::stringstream in(std::string("0 1 4\n") + line + "\n");
    EXPECT_THROW((void)edge_list::from_stream(in), std::runtime_error)
        << line;
  }
  // Surrounding whitespace and CRLF line ends still parse.
  std::stringstream ok("  0 1 4 \r\n2\t3\n");
  const edge_list list = edge_list::from_stream(ok);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.edges()[0].weight, 4u);
  EXPECT_EQ(list.edges()[1].weight, 1u);
}

TEST(CsrGraph, EmptyGraph) {
  const csr_graph g{edge_list{}};
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(CsrGraph, DegreesAndNeighbors) {
  edge_list list;
  list.add_undirected_edge(0, 1, 1);
  list.add_undirected_edge(0, 2, 2);
  list.add_undirected_edge(1, 2, 3);
  const csr_graph g(list);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1u);  // rows sorted by target
  EXPECT_EQ(nbrs[1], 2u);
}

TEST(CsrGraph, EdgeWeightLookup) {
  edge_list list;
  list.add_undirected_edge(0, 1, 4);
  list.add_undirected_edge(1, 2, 6);
  const csr_graph g(list);
  EXPECT_EQ(g.edge_weight(0, 1), 4u);
  EXPECT_EQ(g.edge_weight(2, 1), 6u);
  EXPECT_FALSE(g.edge_weight(0, 2).has_value());
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 0));
}

TEST(CsrGraph, ParallelArcLookupReturnsMinimum) {
  edge_list list;  // intentionally NOT canonicalized
  list.add_edge(0, 1, 9);
  list.add_edge(0, 1, 2);
  const csr_graph g(list);
  EXPECT_EQ(g.edge_weight(0, 1), 2u);
}

TEST(CsrGraph, IsolatedVertices) {
  edge_list list(5);
  list.add_undirected_edge(0, 1, 1);
  const csr_graph g(list);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.degree(4), 0u);
  EXPECT_TRUE(g.neighbors(4).empty());
}

TEST(CsrGraph, MemoryBytesPositive) {
  edge_list list;
  list.add_undirected_edge(0, 1, 1);
  const csr_graph g(list);
  EXPECT_GT(g.memory_bytes(), 0u);
}

TEST(UnionFind, BasicMerging) {
  graph::union_find uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // already joined
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  EXPECT_EQ(uf.set_count(), 3u);
}

TEST(UnionFind, FindIsIdempotent) {
  graph::union_find uf(4);
  uf.unite(0, 1);
  uf.unite(2, 3);
  const auto r = uf.find(1);
  EXPECT_EQ(uf.find(1), r);
  EXPECT_EQ(uf.find(0), r);
}

TEST(GraphStats, ComputesTableThreeColumns) {
  edge_list list;
  list.add_undirected_edge(0, 1, 5);
  list.add_undirected_edge(0, 2, 10);
  list.add_undirected_edge(0, 3, 20);
  const csr_graph g(list);
  const auto stats = graph::compute_statistics(g);
  EXPECT_EQ(stats.num_vertices, 4u);
  EXPECT_EQ(stats.num_arcs, 6u);
  EXPECT_EQ(stats.max_degree, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 1.5);
  EXPECT_EQ(stats.min_weight, 5u);
  EXPECT_EQ(stats.max_weight, 20u);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.largest_component_size, 4u);
  EXPECT_FALSE(graph::describe(stats).empty());
}

TEST(DotExport, EmitsSeedColorsAndEdges) {
  const std::vector<graph::weighted_edge> edges{{0, 1, 5}, {1, 2, 7}};
  const std::vector<graph::vertex_id> seeds{0, 2};
  std::ostringstream out;
  graph::write_dot(out, edges, seeds);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("v0 [fillcolor=red]"), std::string::npos);
  EXPECT_NE(dot.find("v1 [fillcolor=lightblue]"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"7\""), std::string::npos);
}

TEST(DotExport, LabelsOptional) {
  const std::vector<graph::weighted_edge> edges{{0, 1, 5}};
  const std::vector<graph::vertex_id> seeds{0};
  graph::dot_options options;
  options.show_labels = true;
  options.show_weights = false;
  std::ostringstream out;
  graph::write_dot(out, edges, seeds, options);
  EXPECT_NE(out.str().find("label=\"0\""), std::string::npos);
  EXPECT_EQ(out.str().find("label=\"5\""), std::string::npos);
}

}  // namespace

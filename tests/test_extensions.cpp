// Tests for the extension modules: dual-ascent lower bounds and key-path
// improvement.
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "baselines/dual_ascent.hpp"
#include "baselines/exact.hpp"
#include "baselines/key_path_improvement.hpp"
#include "baselines/mehlhorn.hpp"
#include "core/steiner_solver.hpp"
#include "core/validation.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace dsteiner;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_connected_graph(int n, weight_t w_hi, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x44);
  graph::connect_components(list, w_hi + 1, seed);
  return graph::csr_graph(list);
}

std::vector<vertex_id> pick_seeds(const graph::csr_graph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::rng gen(seed);
  const auto picks =
      util::sample_without_replacement(g.num_vertices(), count, gen);
  return {picks.begin(), picks.end()};
}

// ---- Dual ascent lower bound.

class DualAscentProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DualAscentProperty, BoundsExactOptimumFromBelow) {
  const auto [n, num_seeds, seed] = GetParam();
  const auto g = make_connected_graph(n, 25, seed);
  const auto seeds = pick_seeds(g, num_seeds, seed + 3);
  const auto lb = baselines::dual_ascent_lower_bound(g, seeds);
  const auto exact = baselines::exact_steiner_tree(g, seeds);
  EXPECT_TRUE(lb.converged);
  EXPECT_GT(lb.lower_bound, 0u);
  EXPECT_LE(lb.lower_bound, exact.optimal_distance);
  // Dual ascent is typically within ~2x of optimal; sanity-check usefulness.
  EXPECT_GE(2 * lb.lower_bound, exact.optimal_distance);
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, DualAscentProperty,
                         ::testing::Combine(::testing::Values(40, 100),
                                            ::testing::Values(3, 6, 10),
                                            ::testing::Values(21, 22, 23)));

TEST(DualAscent, TwoSeedsEqualsShortestPath) {
  // With |S| = 2 dual ascent converges to the exact shortest-path distance.
  const auto g = make_connected_graph(80, 20, 29);
  const std::vector<vertex_id> seeds{3, 60};
  const auto lb = baselines::dual_ascent_lower_bound(g, seeds);
  const auto sp = graph::dijkstra(g, 3);
  EXPECT_TRUE(lb.converged);
  EXPECT_LE(lb.lower_bound, sp.distance[60]);
  EXPECT_GE(lb.lower_bound, sp.distance[60] / 2);
}

TEST(DualAscent, IterationCapStillValid) {
  const auto g = make_connected_graph(100, 25, 31);
  const auto seeds = pick_seeds(g, 8, 33);
  baselines::dual_ascent_options options;
  options.max_iterations = 3;
  const auto capped = baselines::dual_ascent_lower_bound(g, seeds, options);
  const auto full = baselines::dual_ascent_lower_bound(g, seeds);
  EXPECT_LE(capped.lower_bound, full.lower_bound);
  EXPECT_LE(capped.iterations, 3u);
}

TEST(DualAscent, SingleSeedIsZero) {
  const auto g = make_connected_graph(20, 10, 35);
  const auto lb =
      baselines::dual_ascent_lower_bound(g, std::vector<vertex_id>{4});
  EXPECT_EQ(lb.lower_bound, 0u);
  EXPECT_TRUE(lb.converged);
}

TEST(DualAscent, UnreachableSeedsThrow) {
  graph::edge_list list(4);
  list.add_undirected_edge(0, 1, 1);
  list.add_undirected_edge(2, 3, 1);
  const graph::csr_graph g(list);
  EXPECT_THROW((void)baselines::dual_ascent_lower_bound(
                   g, std::vector<vertex_id>{0, 2}),
               std::runtime_error);
}

// ---- Key-path improvement.

class KeyPathImprovement
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KeyPathImprovement, NeverWorsensAndStaysValid) {
  const auto [n, num_seeds, seed] = GetParam();
  const auto g = make_connected_graph(n, 25, seed);
  const auto seeds = pick_seeds(g, num_seeds, seed + 5);
  const auto base = core::solve_steiner_tree(g, seeds, {});
  const auto improved =
      baselines::improve_steiner_tree(g, seeds, base.tree_edges);
  EXPECT_LE(improved.total_distance, base.total_distance);
  EXPECT_EQ(improved.initial_distance, base.total_distance);
  const auto check = core::validate_steiner_tree(g, seeds, improved.tree_edges);
  EXPECT_TRUE(check.valid) << check.error;
  // The improved tree can never beat the exact optimum.
  const auto exact = baselines::exact_steiner_tree(g, seeds);
  EXPECT_GE(improved.total_distance, exact.optimal_distance);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KeyPathImprovement,
                         ::testing::Combine(::testing::Values(40, 100, 180),
                                            ::testing::Values(4, 8),
                                            ::testing::Values(41, 42, 43)));

TEST(KeyPathImprovementEdge, RepairsObviousDetour) {
  // Triangle with a cheap bypass: tree through the expensive edge must be
  // exchanged for the two cheap ones.
  graph::edge_list list;
  list.add_undirected_edge(0, 1, 10);
  list.add_undirected_edge(0, 2, 2);
  list.add_undirected_edge(2, 1, 2);
  const graph::csr_graph g(list);
  const std::vector<vertex_id> seeds{0, 1};
  const std::vector<graph::weighted_edge> bad_tree{{0, 1, 10}};
  const auto improved = baselines::improve_steiner_tree(g, seeds, bad_tree);
  EXPECT_EQ(improved.total_distance, 4u);
  EXPECT_EQ(improved.exchanges, 1u);
}

TEST(KeyPathImprovementEdge, EmptyTreePassesThrough) {
  const auto g = make_connected_graph(20, 10, 51);
  const auto improved = baselines::improve_steiner_tree(
      g, std::vector<vertex_id>{5}, {});
  EXPECT_TRUE(improved.tree_edges.empty());
  EXPECT_EQ(improved.total_distance, 0u);
}

TEST(KeyPathImprovementEdge, LocalOptimumIsStable) {
  const auto g = make_connected_graph(80, 20, 53);
  const auto seeds = pick_seeds(g, 6, 55);
  const auto base = core::solve_steiner_tree(g, seeds, {});
  const auto once = baselines::improve_steiner_tree(g, seeds, base.tree_edges);
  const auto twice =
      baselines::improve_steiner_tree(g, seeds, once.tree_edges);
  EXPECT_EQ(twice.total_distance, once.total_distance);
  EXPECT_EQ(twice.exchanges, 0u);
}

TEST(Integration, RefinedTreeBracketedByDualAscent) {
  // End-to-end: LB <= refined <= base <= 2 * LB ties four modules together.
  const auto g = make_connected_graph(150, 30, 57);
  const auto seeds = pick_seeds(g, 12, 59);
  const auto base = core::solve_steiner_tree(g, seeds, {});
  const auto improved =
      baselines::improve_steiner_tree(g, seeds, base.tree_edges);
  const auto lb = baselines::dual_ascent_lower_bound(g, seeds);
  EXPECT_LE(lb.lower_bound, improved.total_distance);
  EXPECT_LE(improved.total_distance, base.total_distance);
  EXPECT_LE(base.total_distance, 2 * lb.lower_bound * 2);  // loose sanity
}

}  // namespace

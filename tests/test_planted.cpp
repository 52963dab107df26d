// Tests for planted-optimum instances and the tree-distance (LCA) oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/exact.hpp"
#include "baselines/planted.hpp"
#include "core/steiner_solver.hpp"
#include "core/validation.hpp"
#include "graph/bfs.hpp"
#include "graph/dijkstra.hpp"
#include "runtime/net/dist_solver.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::baselines;
using graph::vertex_id;
using graph::weight_t;

TEST(TreeDistanceOracle, MatchesDijkstraOnTheTree) {
  // Explicit small tree: 0-1(3), 0-2(5), 1-3(2), 1-4(7), 2-5(1).
  const std::vector<vertex_id> parent{0, 0, 0, 1, 1, 2};
  const std::vector<weight_t> weight{0, 3, 5, 2, 7, 1};
  const tree_distance_oracle oracle(parent, weight);

  graph::edge_list list(6);
  for (vertex_id v = 1; v < 6; ++v) {
    list.add_undirected_edge(parent[v], v, weight[v]);
  }
  const graph::csr_graph g(list);
  for (vertex_id u = 0; u < 6; ++u) {
    const auto sp = graph::dijkstra(g, u);
    for (vertex_id v = 0; v < 6; ++v) {
      EXPECT_EQ(oracle.distance(u, v), sp.distance[v]) << u << "->" << v;
    }
  }
  EXPECT_EQ(oracle.lca(3, 4), 1u);
  EXPECT_EQ(oracle.lca(3, 5), 0u);
  EXPECT_EQ(oracle.lca(1, 3), 1u);
}

TEST(TreeDistanceOracle, LargeRandomTreeSpotChecks) {
  const planted_params params{.num_vertices = 500,
                              .num_seeds = 2,
                              .num_noise_edges = 0,
                              .seed = 3};
  const auto instance = make_planted_instance(params);
  // Noise-free instance: graph IS the tree, so Dijkstra distances must equal
  // the optimum path between the two seeds.
  const auto sp = graph::dijkstra(instance.graph, instance.seeds[0]);
  EXPECT_EQ(sp.distance[instance.seeds[1]], instance.optimal_distance);
}

TEST(Planted, OptimalEdgesFormValidTree) {
  const planted_params params{
      .num_vertices = 300, .num_seeds = 12, .num_noise_edges = 900, .seed = 5};
  const auto instance = make_planted_instance(params);
  const auto check = core::validate_steiner_tree(
      instance.graph, instance.seeds, instance.optimal_edges);
  EXPECT_TRUE(check.valid) << check.error;
  EXPECT_EQ(core::tree_distance(instance.optimal_edges),
            instance.optimal_distance);
}

TEST(Planted, NoiseEdgesAreNeverShortcuts) {
  const planted_params params{
      .num_vertices = 200, .num_seeds = 5, .num_noise_edges = 600, .seed = 7};
  const auto instance = make_planted_instance(params);
  // Shortest-path distances in the full graph must equal tree distances:
  // every noise edge is strictly heavier than the tree path it spans.
  const auto tree_only = make_planted_instance(planted_params{
      .num_vertices = 200, .num_seeds = 5, .num_noise_edges = 0, .seed = 7});
  for (const vertex_id s : instance.seeds) {
    const auto with_noise = graph::dijkstra(instance.graph, s);
    const auto without = graph::dijkstra(tree_only.graph, s);
    EXPECT_EQ(with_noise.distance, without.distance) << "seed " << s;
  }
}

TEST(Planted, DpConfirmsClaimedOptimumAtSmallSeedCounts) {
  const planted_params params{
      .num_vertices = 120, .num_seeds = 6, .num_noise_edges = 360, .seed = 9};
  const auto instance = make_planted_instance(params);
  const auto exact = exact_steiner_tree(instance.graph, instance.seeds);
  EXPECT_EQ(exact.optimal_distance, instance.optimal_distance);
}

// Noise edges always exceed the tree path they span, so every shortest path
// is a tree path and Mehlhorn's G'1 MST recovers the minimal subtree of the
// planted tree exactly: the 2(1-1/l) bound is slack here, the tree is not.
class PlantedSolver
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlantedSolver, RecoversPlantedTreeOnEveryTransport) {
  const auto [n, num_seeds, seed] = GetParam();
  planted_params params;
  params.num_vertices = static_cast<vertex_id>(n);
  params.num_seeds = static_cast<std::size_t>(num_seeds);
  params.num_noise_edges = static_cast<std::uint64_t>(n) * 3;
  params.seed = static_cast<std::uint64_t>(seed);
  const auto instance = make_planted_instance(params);
  std::vector<graph::weighted_edge> optimal = instance.optimal_edges;
  for (graph::weighted_edge& e : optimal) {
    if (e.source > e.target) std::swap(e.source, e.target);
  }
  std::sort(optimal.begin(), optimal.end(),
            [](const graph::weighted_edge& a, const graph::weighted_edge& b) {
              return std::tuple{a.source, a.target} <
                     std::tuple{b.source, b.target};
            });

  core::solver_config config;
  config.validate = true;
  core::solver_config threads = config;
  threads.mode = runtime::execution_mode::parallel_threads;
  threads.num_threads = 2;
  const std::pair<const char*, core::steiner_result> runs[] = {
      {"cooperative",
       core::solve_steiner_tree(instance.graph, instance.seeds, config)},
      {"threads",
       core::solve_steiner_tree(instance.graph, instance.seeds, threads)},
      {"net", runtime::net::solve_loopback(instance.graph, instance.seeds,
                                           config, 3)},
  };
  for (const auto& [transport, result] : runs) {
    EXPECT_EQ(result.total_distance, instance.optimal_distance) << transport;
    EXPECT_EQ(result.tree_edges, optimal) << transport;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlantedSweep, PlantedSolver,
    ::testing::Combine(::testing::Values(200, 800),
                       ::testing::Values(10, 50, 200),
                       ::testing::Values(1, 2, 3)));

TEST(Planted, ParameterValidation) {
  EXPECT_THROW((void)make_planted_instance({.num_vertices = 1}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)make_planted_instance({.num_vertices = 10, .num_seeds = 11}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)make_planted_instance({.num_vertices = 10, .num_seeds = 1}),
      std::invalid_argument);
}

TEST(Planted, DeterministicPerSeed) {
  const planted_params params{
      .num_vertices = 100, .num_seeds = 8, .num_noise_edges = 200, .seed = 13};
  const auto a = make_planted_instance(params);
  const auto b = make_planted_instance(params);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.optimal_distance, b.optimal_distance);
  EXPECT_EQ(a.graph.num_arcs(), b.graph.num_arcs());
}

}  // namespace

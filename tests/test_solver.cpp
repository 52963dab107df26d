// End-to-end solver tests: validity, determinism across every runtime
// configuration, approximation bound against exact optima, edge cases.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/exact.hpp"
#include "baselines/mehlhorn.hpp"
#include "core/steiner_solver.hpp"
#include "core/validation.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "runtime/net/dist_solver.hpp"
#include "util/random.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::core;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_connected_graph(int n, weight_t w_hi, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x99);
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

TEST(Solver, HandPickedExample) {
  // The paper's Fig. 1 style example: a 9-vertex graph with 3 seeds.
  graph::edge_list list;
  list.add_undirected_edge(0, 1, 2);
  list.add_undirected_edge(1, 2, 4);
  list.add_undirected_edge(0, 3, 2);
  list.add_undirected_edge(1, 4, 1);
  list.add_undirected_edge(2, 5, 1);
  list.add_undirected_edge(3, 4, 2);
  list.add_undirected_edge(4, 5, 2);
  list.add_undirected_edge(3, 6, 16);
  list.add_undirected_edge(4, 7, 20);
  list.add_undirected_edge(5, 8, 24);
  list.add_undirected_edge(6, 7, 18);
  list.add_undirected_edge(7, 8, 1);
  const graph::csr_graph g(list);
  const std::vector<vertex_id> seeds{0, 2, 7};

  solver_config config;
  config.num_ranks = 4;
  config.validate = true;
  const auto result = solve_steiner_tree(g, seeds, config);
  EXPECT_TRUE(result.spans_all_seeds);
  const auto check = validate_steiner_tree(g, seeds, result.tree_edges);
  EXPECT_TRUE(check.valid) << check.error;

  // Exact optimum for comparison (3 terminals -> trivial for the DP).
  const auto exact = baselines::exact_steiner_tree(g, seeds);
  EXPECT_GE(result.total_distance, exact.optimal_distance);
  EXPECT_LE(result.total_distance, 2 * exact.optimal_distance);
}

TEST(Solver, SingleSeedYieldsEmptyTree) {
  const auto g = make_connected_graph(50, 10, 1);
  const auto result = solve_steiner_tree(g, std::vector<vertex_id>{7});
  EXPECT_TRUE(result.tree_edges.empty());
  EXPECT_EQ(result.total_distance, 0u);
  EXPECT_EQ(result.num_seeds, 1u);
}

TEST(Solver, DuplicateSeedsDeduplicated) {
  const auto g = make_connected_graph(50, 10, 2);
  const std::vector<vertex_id> seeds{3, 9, 3, 9, 3};
  const auto result = solve_steiner_tree(g, seeds);
  EXPECT_EQ(result.num_seeds, 2u);
  const auto check =
      validate_steiner_tree(g, std::vector<vertex_id>{3, 9}, result.tree_edges);
  EXPECT_TRUE(check.valid) << check.error;
}

TEST(Solver, TwoSeedsReproduceShortestPath) {
  // |S| = 2: the Steiner tree degenerates to a shortest weighted path (§I).
  const auto g = make_connected_graph(120, 25, 3);
  const std::vector<vertex_id> seeds{0, 100};
  const auto result = solve_steiner_tree(g, seeds);
  const auto sp = graph::dijkstra(g, 0);
  EXPECT_EQ(result.total_distance, sp.distance[100]);
}

TEST(Solver, OutOfRangeSeedThrows) {
  const auto g = make_connected_graph(20, 10, 4);
  EXPECT_THROW((void)solve_steiner_tree(g, std::vector<vertex_id>{5, 999}),
               std::out_of_range);

  // A zero batch would never drain a mailbox: both engines reject it.
  solver_config config;
  config.batch_size = 0;
  for (const auto mode : {runtime::execution_mode::async,
                          runtime::execution_mode::parallel_threads}) {
    config.mode = mode;
    EXPECT_THROW((void)solve_steiner_tree(g, std::vector<vertex_id>{0, 5},
                                          config),
                 std::invalid_argument);
  }
}

TEST(Solver, DisconnectedSeedsThrowByDefault) {
  graph::edge_list list(4);
  list.add_undirected_edge(0, 1, 1);
  list.add_undirected_edge(2, 3, 1);
  const graph::csr_graph g(list);
  EXPECT_THROW((void)solve_steiner_tree(g, std::vector<vertex_id>{0, 2}),
               std::runtime_error);
}

TEST(Solver, DisconnectedSeedsForestWhenAllowed) {
  graph::edge_list list(6);
  list.add_undirected_edge(0, 1, 3);
  list.add_undirected_edge(1, 2, 4);
  list.add_undirected_edge(3, 4, 5);
  const graph::csr_graph g(list);
  solver_config config;
  config.allow_disconnected_seeds = true;
  const auto result =
      solve_steiner_tree(g, std::vector<vertex_id>{0, 2, 3, 4}, config);
  EXPECT_FALSE(result.spans_all_seeds);
  // Forest: path 0-1-2 plus edge 3-4.
  EXPECT_EQ(result.total_distance, 3u + 4u + 5u);
}

TEST(Solver, PhaseBreakdownCoversAllSixSteps) {
  const auto g = make_connected_graph(150, 30, 5);
  const auto seeds = pick_seeds(g, 10, 6);
  const auto result = solve_steiner_tree(g, seeds);
  for (const char* name :
       {runtime::phase_names::voronoi, runtime::phase_names::local_min_edge,
        runtime::phase_names::global_min_edge, runtime::phase_names::mst,
        runtime::phase_names::pruning, runtime::phase_names::tree_edge}) {
    ASSERT_NE(result.phases.find(name), nullptr) << name;
  }
  const auto total = result.phases.total();
  EXPECT_GT(total.sim_units, 0.0);
  EXPECT_GT(total.messages_total(), 0u);
  EXPECT_GT(result.memory.graph_bytes, 0u);
  EXPECT_GT(result.memory.algorithm_bytes(), 0u);
}

// ---- Determinism: the output tree is a pure function of (graph, seeds),
// regardless of ranks, queue policy, execution mode, partitioning, delegates
// or the dense/sparse reduction path.

class SolverDeterminism
    : public ::testing::TestWithParam<
          std::tuple<int, runtime::queue_policy, runtime::execution_mode,
                     runtime::partition_scheme, bool, bool>> {};

TEST_P(SolverDeterminism, SameTreeEveryConfiguration) {
  const auto [ranks, policy, mode, scheme, delegates, dense] = GetParam();
  const auto g = make_connected_graph(130, 20, 7);
  const auto seeds = pick_seeds(g, 9, 8);

  solver_config reference_config;  // defaults: 16 ranks, priority, async
  const auto reference = solve_steiner_tree(g, seeds, reference_config);

  solver_config config;
  config.num_ranks = ranks;
  config.policy = policy;
  config.mode = mode;
  config.scheme = scheme;
  config.use_delegates = delegates;
  config.delegate_threshold = 8;
  config.dense_distance_graph = dense;
  config.validate = true;
  const auto result = solve_steiner_tree(g, seeds, config);

  EXPECT_EQ(result.total_distance, reference.total_distance);
  EXPECT_EQ(result.tree_edges, reference.tree_edges);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SolverDeterminism,
    ::testing::Combine(
        ::testing::Values(1, 5, 16),
        ::testing::Values(runtime::queue_policy::fifo,
                          runtime::queue_policy::priority),
        ::testing::Values(runtime::execution_mode::async,
                          runtime::execution_mode::bsp),
        ::testing::Values(runtime::partition_scheme::block,
                          runtime::partition_scheme::hash),
        ::testing::Values(false, true), ::testing::Values(false, true)));

// ---- Approximation bound against the exact DP on small instances.

class SolverBound : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SolverBound, WithinTwoApproximation) {
  const auto [n, num_seeds, seed] = GetParam();
  const auto g = make_connected_graph(n, 25, seed);
  const auto seeds = pick_seeds(g, num_seeds, seed + 50);

  solver_config config;
  config.validate = true;
  solver_config threaded = config;
  threaded.mode = runtime::execution_mode::parallel_threads;
  threaded.num_threads = 2;
  const auto exact = baselines::exact_steiner_tree(g, seeds);

  // Every transport: the cooperative engine, the threaded engine, and three
  // ranks exchanging frames over the loopback mesh.
  const auto result = solve_steiner_tree(g, seeds, config);
  for (const auto& other :
       {result, solve_steiner_tree(g, seeds, threaded),
        runtime::net::solve_loopback(g, seeds, config, 3)}) {
    EXPECT_GE(other.total_distance, exact.optimal_distance);
    // The theoretical bound is 2(1 - 1/l) < 2.
    EXPECT_LT(static_cast<double>(other.total_distance),
              2.0 * static_cast<double>(exact.optimal_distance) + 1e-9);
    EXPECT_EQ(other.tree_edges, result.tree_edges);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, SolverBound,
                         ::testing::Combine(::testing::Values(30, 60, 100),
                                            ::testing::Values(3, 5, 8),
                                            ::testing::Values(11, 12, 13)));

TEST(Solver, MatchesMehlhornQualityClass) {
  // Not necessarily the identical tree, but both are 2-approximations built
  // from the same distance graph; totals should be close.
  const auto g = make_connected_graph(200, 30, 17);
  const auto seeds = pick_seeds(g, 12, 18);
  const auto ours = solve_steiner_tree(g, seeds);
  const auto mehlhorn = baselines::mehlhorn_steiner_tree(g, seeds);
  const double ratio = static_cast<double>(ours.total_distance) /
                       static_cast<double>(mehlhorn.total_distance);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

}  // namespace

// Warm-start recomputation tests: a warm solve after a seed-set delta must be
// bit-identical to a cold solve (the solver's determinism guarantee) while
// doing measurably less phase-1/phase-2 work.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/validation.hpp"
#include "core/warm_start.hpp"
#include "graph/generators.hpp"
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

void expect_same_tree(const steiner_result& warm, const steiner_result& cold) {
  EXPECT_EQ(warm.total_distance, cold.total_distance);
  EXPECT_EQ(warm.tree_edges, cold.tree_edges);
  EXPECT_EQ(warm.num_seeds, cold.num_seeds);
  EXPECT_EQ(warm.spans_all_seeds, cold.spans_all_seeds);
}

TEST(WarmStart, SeedDeltaHelpers) {
  const std::vector<vertex_id> donor{2, 5, 9};
  const std::vector<vertex_id> target{2, 7, 9, 11};
  const auto delta = compute_seed_delta(donor, target);
  EXPECT_EQ(delta.added, (std::vector<vertex_id>{7, 11}));
  EXPECT_EQ(delta.removed, (std::vector<vertex_id>{5}));
  EXPECT_EQ(delta.size(), 3u);
}

TEST(WarmStart, CanonicalizeSeedsSortsAndDedups) {
  const auto g = make_connected_graph(30, 10, 1);
  const auto canon =
      canonicalize_seeds(g, std::vector<vertex_id>{9, 3, 9, 1, 3});
  EXPECT_EQ(canon, (std::vector<vertex_id>{1, 3, 9}));
  EXPECT_THROW((void)canonicalize_seeds(g, std::vector<vertex_id>{5, 999}),
               std::out_of_range);
}

TEST(WarmStart, CaptureMatchesPlainSolve) {
  const auto g = make_connected_graph(120, 20, 2);
  const std::vector<vertex_id> seeds{3, 40, 77, 100};
  solver_config config;
  config.validate = true;
  solve_artifacts artifacts;
  const auto captured = solve_steiner_tree_capture(g, seeds, config, artifacts);
  const auto plain = solve_steiner_tree(g, seeds, config);
  expect_same_tree(captured, plain);
  EXPECT_EQ(artifacts.seeds, seeds);  // already canonical
  EXPECT_FALSE(artifacts.empty());
  EXPECT_EQ(artifacts.state.distance.size(), g.num_vertices());
  EXPECT_EQ(artifacts.global_en.size(), captured.distance_graph_edges);
  EXPECT_GT(artifacts.memory_bytes(), 0u);
}

TEST(WarmStart, AddSeedEqualsCold) {
  const auto g = make_connected_graph(150, 25, 3);
  solver_config config;
  config.validate = true;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(g, std::vector<vertex_id>{10, 60, 120},
                                   config, donor);
  const std::vector<vertex_id> next{10, 60, 90, 120};
  warm_start_stats stats;
  const auto warm =
      solve_steiner_tree_warm(g, next, donor, config, nullptr, &stats);
  const auto cold = solve_steiner_tree(g, next, config);
  expect_same_tree(warm, cold);
  EXPECT_EQ(stats.added_seeds, 1u);
  EXPECT_EQ(stats.removed_seeds, 0u);
  EXPECT_EQ(stats.reset_vertices, 0u);
}

TEST(WarmStart, RemoveSeedEqualsCold) {
  const auto g = make_connected_graph(150, 25, 4);
  solver_config config;
  config.validate = true;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(g, std::vector<vertex_id>{10, 60, 90, 120},
                                   config, donor);
  const std::vector<vertex_id> next{10, 60, 120};
  warm_start_stats stats;
  const auto warm =
      solve_steiner_tree_warm(g, next, donor, config, nullptr, &stats);
  const auto cold = solve_steiner_tree(g, next, config);
  expect_same_tree(warm, cold);
  EXPECT_EQ(stats.removed_seeds, 1u);
  EXPECT_GT(stats.reset_vertices, 0u);  // seed 90's cell contained at least 90
}

TEST(WarmStart, MixedDeltaEqualsCold) {
  const auto g = make_connected_graph(200, 30, 5);
  solver_config config;
  config.validate = true;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(
      g, std::vector<vertex_id>{5, 50, 100, 150}, config, donor);
  const std::vector<vertex_id> next{5, 42, 100, 150, 188};
  const auto warm = solve_steiner_tree_warm(g, next, donor, config);
  const auto cold = solve_steiner_tree(g, next, config);
  expect_same_tree(warm, cold);
}

TEST(WarmStart, EmptyDeltaReproducesDonorTree) {
  const auto g = make_connected_graph(100, 15, 6);
  solver_config config;
  solve_artifacts donor;
  const auto first = solve_steiner_tree_capture(
      g, std::vector<vertex_id>{7, 33, 71}, config, donor);
  warm_start_stats stats;
  const auto warm = solve_steiner_tree_warm(
      g, std::vector<vertex_id>{7, 33, 71}, donor, config, nullptr, &stats);
  expect_same_tree(warm, first);
  EXPECT_EQ(stats.changed_vertices, 0u);
  EXPECT_EQ(stats.rescanned_vertices, 0u);
  EXPECT_EQ(stats.retained_entries, donor.global_en.size());
}

TEST(WarmStart, RandomDeltaChainEqualsColdEveryStep) {
  // Chain warm starts (each step's capture feeds the next) through a random
  // walk of add/remove edits; every step must match the cold solve.
  const auto g = make_connected_graph(250, 30, 7);
  solver_config config;
  config.validate = true;
  util::rng gen(0xabcde);

  std::vector<vertex_id> seeds{11, 60, 140, 200};
  solve_artifacts artifacts;
  (void)solve_steiner_tree_capture(g, seeds, config, artifacts);

  for (int step = 0; step < 12; ++step) {
    // Mutate: flip 1-3 membership decisions.
    const int flips = 1 + static_cast<int>(gen.uniform(0, 2));
    for (int f = 0; f < flips; ++f) {
      const vertex_id v = gen.uniform(0, g.num_vertices() - 1);
      const auto it = std::find(seeds.begin(), seeds.end(), v);
      if (it != seeds.end() && seeds.size() > 2) {
        seeds.erase(it);
      } else if (it == seeds.end()) {
        seeds.push_back(v);
      }
    }
    solve_artifacts next_artifacts;
    const auto warm = solve_steiner_tree_warm(g, seeds, artifacts, config,
                                              &next_artifacts);
    const auto cold = solve_steiner_tree(g, seeds, config);
    expect_same_tree(warm, cold);
    artifacts = std::move(next_artifacts);
    ASSERT_EQ(artifacts.seeds.size(), warm.num_seeds);
  }
}

TEST(WarmStart, DoesLessPhaseOneWorkThanCold) {
  // A spatially local graph with many small cells: a one-seed delta touches
  // only the handful of neighbouring cells, so both the Voronoi repair and
  // the partial phase-2 rescan stay local. (On an expander-like graph a
  // single delta can churn most cells and the incremental rescan
  // legitimately approaches full-scan cost.)
  graph::edge_list list = graph::generate_grid(24, 25);  // 600 vertices
  graph::assign_uniform_weights(list, 1, 30, 0x77);
  const graph::csr_graph g(list);
  solver_config config;
  solve_artifacts donor;
  std::vector<vertex_id> seeds;
  for (vertex_id s = 12; s < 600; s += 30) seeds.push_back(s);  // 20 seeds
  (void)solve_steiner_tree_capture(g, seeds, config, donor);

  seeds.push_back(301);
  warm_start_stats stats;
  const auto warm =
      solve_steiner_tree_warm(g, seeds, donor, config, nullptr, &stats);
  const auto cold = solve_steiner_tree(g, seeds, config);
  expect_same_tree(warm, cold);

  EXPECT_LT(stats.rescanned_vertices, g.num_vertices() / 2);

  const auto* warm_voronoi = warm.phases.find(runtime::phase_names::voronoi);
  const auto* cold_voronoi = cold.phases.find(runtime::phase_names::voronoi);
  ASSERT_NE(warm_voronoi, nullptr);
  ASSERT_NE(cold_voronoi, nullptr);
  EXPECT_LT(warm_voronoi->visitors_processed, cold_voronoi->visitors_processed);
  EXPECT_LT(warm_voronoi->messages_total(), cold_voronoi->messages_total());
  // Repair runs the same handler, so it holds the same dominance-filter rows.
  EXPECT_EQ(warm.memory.send_filter_bytes, cold.memory.send_filter_bytes);
  EXPECT_GT(warm.memory.send_filter_bytes, 0u);

  const auto* warm_scan = warm.phases.find(runtime::phase_names::local_min_edge);
  const auto* cold_scan = cold.phases.find(runtime::phase_names::local_min_edge);
  ASSERT_NE(warm_scan, nullptr);
  ASSERT_NE(cold_scan, nullptr);
  EXPECT_LT(warm_scan->visitors_processed, cold_scan->visitors_processed);
}

TEST(WarmStart, DonorConfigDoesNotMatter) {
  // Artifacts are config-independent (determinism): a donor computed under
  // one runtime configuration warm-starts a query under another.
  const auto g = make_connected_graph(150, 20, 9);
  solver_config donor_config;
  donor_config.num_ranks = 4;
  donor_config.policy = runtime::queue_policy::fifo;
  donor_config.mode = runtime::execution_mode::bsp;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(g, std::vector<vertex_id>{12, 55, 101},
                                   donor_config, donor);

  solver_config query_config;  // defaults: 16 ranks, priority, async
  query_config.validate = true;
  const std::vector<vertex_id> next{12, 55, 101, 140};
  const auto warm = solve_steiner_tree_warm(g, next, donor, query_config);
  const auto cold = solve_steiner_tree(g, next, query_config);
  expect_same_tree(warm, cold);
}

TEST(WarmStart, DenseReductionEqualsCold) {
  const auto g = make_connected_graph(150, 20, 10);
  solver_config config;
  config.dense_distance_graph = true;
  config.allreduce_chunk_items = 3;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(g, std::vector<vertex_id>{9, 70, 130},
                                   config, donor);
  const std::vector<vertex_id> next{9, 44, 70, 130};
  const auto warm = solve_steiner_tree_warm(g, next, donor, config);
  const auto cold = solve_steiner_tree(g, next, config);
  expect_same_tree(warm, cold);
}

TEST(WarmStart, ForestDeltasWhenSeedsDisconnect) {
  graph::edge_list list(8);
  list.add_undirected_edge(0, 1, 3);
  list.add_undirected_edge(1, 2, 4);
  list.add_undirected_edge(3, 4, 5);
  list.add_undirected_edge(4, 5, 2);
  const graph::csr_graph g(list);
  solver_config config;
  config.allow_disconnected_seeds = true;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(g, std::vector<vertex_id>{0, 2, 3}, config,
                                   donor);
  const std::vector<vertex_id> next{0, 2, 3, 5};
  const auto warm = solve_steiner_tree_warm(g, next, donor, config);
  const auto cold = solve_steiner_tree(g, next, config);
  expect_same_tree(warm, cold);
  EXPECT_FALSE(warm.spans_all_seeds);
}

TEST(WarmStart, ShrinkToSingleSeedYieldsEmptyTree) {
  const auto g = make_connected_graph(60, 10, 11);
  solver_config config;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(g, std::vector<vertex_id>{4, 30}, config,
                                   donor);
  const auto warm =
      solve_steiner_tree_warm(g, std::vector<vertex_id>{4}, donor, config);
  EXPECT_TRUE(warm.tree_edges.empty());
  EXPECT_EQ(warm.total_distance, 0u);
}

TEST(WarmStart, MismatchedDonorThrows) {
  const auto g = make_connected_graph(60, 10, 12);
  const auto other = make_connected_graph(90, 10, 13);
  solver_config config;
  solve_artifacts donor;
  (void)solve_steiner_tree_capture(other, std::vector<vertex_id>{1, 50},
                                   config, donor);
  EXPECT_THROW((void)solve_steiner_tree_warm(g, std::vector<vertex_id>{1, 20},
                                             donor, config),
               std::invalid_argument);

  // Same |V|, different graph: the fingerprint check must still reject —
  // repairing stale labels would silently produce a wrong tree.
  const auto same_size = make_connected_graph(60, 10, 14);
  solve_artifacts same_size_donor;
  (void)solve_steiner_tree_capture(same_size, std::vector<vertex_id>{1, 50},
                                   config, same_size_donor);
  EXPECT_THROW((void)solve_steiner_tree_warm(
                   g, std::vector<vertex_id>{1, 20}, same_size_donor, config),
               std::invalid_argument);

  const solve_artifacts empty_donor;
  EXPECT_THROW((void)solve_steiner_tree_warm(g, std::vector<vertex_id>{1, 20},
                                             empty_donor, config),
               std::invalid_argument);
}

}  // namespace

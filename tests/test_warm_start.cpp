// Warm-start recomputation tests: repairing a donor solve of the same seed set
// across an edge delta (or an empty one) must be bit-identical to a cold
// solve (the solver's determinism guarantee) while doing measurably less
// phase-1/phase-2 work.
#include <gtest/gtest.h>

#include <vector>

#include "core/steiner_solver.hpp"
#include "core/validation.hpp"
#include "core/warm_start.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/generators.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::core;
using graph::edge_delta;
using graph::edge_edit;
using graph::epoch_graph;
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

/// Derives the epoch that sets the weight of `u`'s first edge to `weight`.
epoch_graph::ptr reweight_first_edge(const epoch_graph::ptr& base, vertex_id u,
                                     weight_t weight) {
  const auto nbrs = base->neighbors(u);
  EXPECT_FALSE(nbrs.empty());
  edge_delta delta;
  delta.edits.push_back(edge_edit::reweight(u, nbrs.front(), weight));
  return base->derive(delta);
}

/// Repairs `donor` (solved on `base`) over the edge delta to `next`.
steiner_result edge_warm(const epoch_graph::ptr& base,
                         const epoch_graph::ptr& next,
                         const solve_artifacts& donor,
                         const solver_config& config,
                         warm_start_stats* stats = nullptr) {
  return solve_steiner_tree_edge_warm(*next->csr(), donor,
                                      base->csr()->fingerprint(),
                                      next->delta_from_parent(), config,
                                      nullptr, stats);
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
  const auto captured = solve_steiner_tree_assisted(
      g, seeds, {}, config, &artifacts);
  const auto plain = solve_steiner_tree(g, seeds, config);
  expect_same_tree(captured, plain);
  EXPECT_EQ(artifacts.seeds, seeds);  // already canonical
  EXPECT_FALSE(artifacts.empty());
  EXPECT_EQ(artifacts.state.distance.size(), g.num_vertices());
  EXPECT_EQ(artifacts.global_en.size(), captured.distance_graph_edges);
  EXPECT_GT(artifacts.memory_bytes(), 0u);
}

TEST(WarmStart, EmptyDeltaReproducesDonorTree) {
  const auto g = make_connected_graph(100, 15, 6);
  solver_config config;
  solve_artifacts donor;
  const auto first = solve_steiner_tree_assisted(
      g, std::vector<vertex_id>{7, 33, 71}, {}, config, &donor);
  warm_start_stats stats;
  const auto warm = solve_steiner_tree_edge_warm(
      g, donor, g.fingerprint(), {}, config, nullptr, &stats);
  expect_same_tree(warm, first);
  EXPECT_EQ(stats.changed_vertices, 0u);
  EXPECT_EQ(stats.rescanned_vertices, 0u);
  EXPECT_EQ(stats.retained_entries, donor.global_en.size());
}

TEST(WarmStart, DoesLessPhaseOneWorkThanCold) {
  // A spatially local graph with many small cells: raising one edge next to
  // a seed damages only part of that seed's cell, so both the Voronoi repair
  // and the partial phase-2 rescan stay local. (On an expander-like graph a
  // single edit can churn most cells and the incremental rescan
  // legitimately approaches full-scan cost.)
  graph::edge_list list = graph::generate_grid(24, 25);  // 600 vertices
  graph::assign_uniform_weights(list, 1, 30, 0x77);
  const auto base = epoch_graph::make_base(graph::csr_graph(list));
  solver_config config;
  solve_artifacts donor;
  std::vector<vertex_id> seeds;
  for (vertex_id s = 12; s < 600; s += 30) seeds.push_back(s);  // 20 seeds
  (void)solve_steiner_tree_assisted(*base->csr(), seeds, {}, config, &donor);

  const auto next = reweight_first_edge(base, 312, 500);
  warm_start_stats stats;
  const auto warm = edge_warm(base, next, donor, config, &stats);
  const auto cold = solve_steiner_tree(*next->csr(), seeds, config);
  expect_same_tree(warm, cold);

  EXPECT_GT(stats.reset_vertices, 0u);  // the raised edge was on a witness
  EXPECT_LT(stats.rescanned_vertices, next->num_vertices() / 2);

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
  const auto base = epoch_graph::make_base(make_connected_graph(150, 20, 9));
  const std::vector<vertex_id> seeds{12, 55, 101, 140};
  solver_config donor_config;
  donor_config.num_ranks = 4;
  donor_config.policy = runtime::queue_policy::fifo;
  donor_config.mode = runtime::execution_mode::bsp;
  solve_artifacts donor;
  (void)solve_steiner_tree_assisted(
      *base->csr(), seeds, {}, donor_config, &donor);

  solver_config query_config;  // defaults: 16 ranks, priority, async
  query_config.validate = true;
  const auto next = reweight_first_edge(base, 55, 400);
  const auto warm = edge_warm(base, next, donor, query_config);
  const auto cold = solve_steiner_tree(*next->csr(), seeds, query_config);
  expect_same_tree(warm, cold);
}

TEST(WarmStart, DenseReductionEqualsCold) {
  const auto base = epoch_graph::make_base(make_connected_graph(150, 20, 10));
  const std::vector<vertex_id> seeds{9, 44, 70, 130};
  solver_config config;
  config.dense_distance_graph = true;
  config.allreduce_chunk_items = 3;
  solve_artifacts donor;
  (void)solve_steiner_tree_assisted(*base->csr(), seeds, {}, config, &donor);
  const auto next = reweight_first_edge(base, 70, 1);
  const auto warm = edge_warm(base, next, donor, config);
  const auto cold = solve_steiner_tree(*next->csr(), seeds, config);
  expect_same_tree(warm, cold);
}

TEST(WarmStart, MismatchedDonorThrows) {
  const auto g = make_connected_graph(60, 10, 12);
  const auto other = make_connected_graph(90, 10, 13);
  const std::vector<vertex_id> seeds{1, 50};
  solver_config config;
  solve_artifacts donor;
  (void)solve_steiner_tree_assisted(other, seeds, {}, config, &donor);
  // The fingerprint names the donor's own graph, but |V| differs.
  EXPECT_THROW((void)solve_steiner_tree_edge_warm(g, donor,
                                                  other.fingerprint(), {},
                                                  config),
               std::invalid_argument);

  const solve_artifacts empty_donor;
  EXPECT_THROW((void)solve_steiner_tree_edge_warm(g, empty_donor,
                                                  g.fingerprint(), {}, config),
               std::invalid_argument);
}

}  // namespace

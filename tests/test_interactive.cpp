// Tests for the interactive exploration session (§I workflow).
#include <gtest/gtest.h>

#include "core/validation.hpp"
#include "graph/generators.hpp"
#include "service/exploration_session.hpp"
#include "service/steiner_service.hpp"

namespace {

using namespace dsteiner;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_graph(std::uint64_t seed) {
  graph::edge_list list = graph::generate_erdos_renyi(200, 600, seed);
  graph::assign_uniform_weights(list, 1, 30, seed ^ 0x31);
  graph::connect_components(list, 31, seed);
  return graph::csr_graph(list);
}

TEST(Interactive, LazyRecomputeAndCaching) {
  service::exploration_session session(make_graph(1));
  EXPECT_FALSE(session.up_to_date());
  session.add_seed(3);
  session.add_seed(77);
  session.add_seed(150);
  const auto& first = session.tree();
  EXPECT_EQ(session.recompute_count(), 1u);
  EXPECT_TRUE(session.up_to_date());
  // Repeated queries hit the cache.
  (void)session.tree();
  (void)session.tree();
  EXPECT_EQ(session.recompute_count(), 1u);
  EXPECT_FALSE(first.tree_edges.empty());
}

TEST(Interactive, MatchesFreshSolve) {
  const auto g = make_graph(2);
  service::exploration_session session(g);
  const std::vector<vertex_id> seeds{5, 60, 120, 199};
  session.set_seeds(seeds);
  const auto& via_session = session.tree();
  core::solver_config config;
  config.allow_disconnected_seeds = true;
  const auto fresh = core::solve_steiner_tree(g, seeds, config);
  EXPECT_EQ(via_session.tree_edges, fresh.tree_edges);
  EXPECT_EQ(via_session.total_distance, fresh.total_distance);
}

TEST(Interactive, EditsInvalidate) {
  service::exploration_session session(make_graph(3));
  session.set_seeds(std::vector<vertex_id>{1, 50});
  (void)session.tree();
  EXPECT_TRUE(session.up_to_date());
  EXPECT_TRUE(session.add_seed(100));
  EXPECT_FALSE(session.up_to_date());
  (void)session.tree();
  EXPECT_TRUE(session.remove_seed(100));
  EXPECT_FALSE(session.up_to_date());
  EXPECT_EQ(session.recompute_count(), 2u);
}

TEST(Interactive, IdempotentEditsDoNotInvalidate) {
  service::exploration_session session(make_graph(4));
  session.set_seeds(std::vector<vertex_id>{1, 2});
  (void)session.tree();
  EXPECT_FALSE(session.add_seed(1));     // already present
  EXPECT_FALSE(session.remove_seed(9));  // never present
  EXPECT_TRUE(session.up_to_date());
}

TEST(Interactive, AddRemoveRoundTripRestoresTree) {
  service::exploration_session session(make_graph(5));
  session.set_seeds(std::vector<vertex_id>{10, 90, 170});
  const auto baseline = session.tree().tree_edges;
  session.add_seed(42);
  (void)session.tree();
  session.remove_seed(42);
  EXPECT_EQ(session.tree().tree_edges, baseline);  // deterministic solver
}

TEST(Interactive, SingleOrNoSeedsYieldEmptyTree) {
  service::exploration_session session(make_graph(6));
  EXPECT_TRUE(session.tree().tree_edges.empty());
  session.add_seed(7);
  EXPECT_TRUE(session.tree().tree_edges.empty());
}

TEST(Interactive, FilterEdgesMayProduceForest) {
  service::exploration_session session(make_graph(7));
  session.set_seeds(std::vector<vertex_id>{0, 100, 180});
  const auto before = session.tree().total_distance;
  session.filter_edges_above(5);  // keep only the strongest relationships
  const auto& after = session.tree();
  // Either a (possibly partial) forest or an empty tree; never an exception.
  if (after.spans_all_seeds) {
    const auto check = core::validate_steiner_tree(
        session.graph(), session.seeds(), after.tree_edges);
    EXPECT_TRUE(check.valid) << check.error;
  }
  EXPECT_GE(before, 1u);
}

TEST(Interactive, ReweightChangesDistances) {
  service::exploration_session session(make_graph(8));
  session.set_seeds(std::vector<vertex_id>{3, 140});
  const auto before = session.tree().total_distance;
  session.reweight([](vertex_id, vertex_id, weight_t w) { return w * 10; });
  const auto after = session.tree().total_distance;
  EXPECT_EQ(after, before * 10);  // uniform scaling preserves the tree shape
}

TEST(Interactive, RankKnobPreservesResult) {
  service::exploration_session session(make_graph(9));
  session.set_seeds(std::vector<vertex_id>{11, 44, 99, 160});
  const auto with_16 = session.tree().tree_edges;
  session.set_ranks(64);
  EXPECT_FALSE(session.up_to_date());
  EXPECT_EQ(session.tree().tree_edges, with_16);
  session.set_ranks(64);  // no-op: same value
  EXPECT_TRUE(session.up_to_date());
}

TEST(Interactive, SeedEditsUseFragmentsAndCacheHits) {
  service::exploration_session session(make_graph(11));
  session.set_seeds(std::vector<vertex_id>{10, 90, 170});
  const auto baseline = session.tree().tree_edges;
  EXPECT_EQ(session.last_solve_kind(), service::solve_kind::cold);
  EXPECT_EQ(session.recompute_count(), 1u);

  session.add_seed(42);  // pre-seeded from the kept seeds' fragments
  (void)session.tree();
  EXPECT_EQ(session.last_solve_kind(), service::solve_kind::cold);
  EXPECT_EQ(session.service().stats().fragment_assisted, 1u);
  EXPECT_EQ(session.recompute_count(), 2u);

  session.remove_seed(42);  // back to a seed set the service has seen
  EXPECT_EQ(session.tree().tree_edges, baseline);
  EXPECT_EQ(session.last_solve_kind(), service::solve_kind::cache_hit);
  EXPECT_EQ(session.recompute_count(), 2u);  // cache hits are not solver runs

  const auto stats = session.service().stats();
  EXPECT_EQ(stats.cold_solves, 2u);
  EXPECT_EQ(stats.warm_solves, 0u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Interactive, GraphEditsDeriveEpochsInsteadOfRebuilding) {
  service::exploration_session session(make_graph(12));
  session.set_seeds(std::vector<vertex_id>{3, 140});
  (void)session.tree();
  EXPECT_EQ(session.current_epoch(), 0u);
  const auto fingerprint_before = session.service().graph_fingerprint();

  // A *small* reweight (4 edges): the service derives an epoch and the next
  // query repairs the previous solve across the edge delta — no rebuild, no
  // cold solve, and the stats survive the edit.
  int budget = 4;
  session.reweight([&budget](vertex_id, vertex_id, weight_t w) {
    return budget-- > 0 ? w + 3 : w;
  });
  EXPECT_EQ(session.current_epoch(), 1u);
  EXPECT_NE(session.service().graph_fingerprint(), fingerprint_before);
  EXPECT_FALSE(session.up_to_date());

  (void)session.tree();
  EXPECT_EQ(session.last_solve_kind(), service::solve_kind::warm_start);
  const auto stats = session.service().stats();
  EXPECT_EQ(stats.cold_solves, 1u);        // only the original solve was cold
  EXPECT_EQ(stats.edge_warm_solves, 1u);   // the edit repaired across epochs
  EXPECT_EQ(stats.epoch_advances, 1u);

  // The repaired tree is the mutated graph's tree, bit-identical to fresh.
  core::solver_config config;
  config.allow_disconnected_seeds = true;
  const auto fresh =
      core::solve_steiner_tree(session.graph(), session.seeds(), config);
  EXPECT_EQ(session.tree().tree_edges, fresh.tree_edges);
  EXPECT_EQ(session.tree().total_distance, fresh.total_distance);
}

TEST(Interactive, NoOpReweightKeepsCacheAndEpoch) {
  service::exploration_session session(make_graph(13));
  session.set_seeds(std::vector<vertex_id>{10, 90});
  (void)session.tree();
  session.reweight([](vertex_id, vertex_id, weight_t w) { return w; });
  EXPECT_TRUE(session.up_to_date());  // nothing changed: no epoch, no solve
  EXPECT_EQ(session.current_epoch(), 0u);
  EXPECT_EQ(session.recompute_count(), 1u);
}

TEST(Interactive, FilterDerivesAnEpochToo) {
  service::exploration_session session(make_graph(14));
  session.set_seeds(std::vector<vertex_id>{0, 100, 180});
  (void)session.tree();
  session.filter_edges_above(15);
  EXPECT_EQ(session.current_epoch(), 1u);
  EXPECT_FALSE(session.up_to_date());
  (void)session.tree();  // forest or tree, never an exception, any path
  EXPECT_EQ(session.service().stats().epoch_advances, 1u);
}

TEST(Interactive, RejectsBadInput) {
  service::exploration_session session(make_graph(10));
  EXPECT_THROW(session.add_seed(10000), std::out_of_range);
  EXPECT_THROW(session.set_seeds(std::vector<vertex_id>{1, 10000}),
               std::out_of_range);
  EXPECT_THROW(session.set_ranks(0), std::invalid_argument);
}

TEST(Interactive, RejectedSetSeedsLeavesStateUntouched) {
  service::exploration_session session(make_graph(15));
  session.set_seeds(std::vector<vertex_id>{1, 2});
  (void)session.tree();
  EXPECT_THROW(session.set_seeds(std::vector<vertex_id>{5, 10000}),
               std::out_of_range);
  // The failed edit must not half-apply: old seeds and cached tree stand.
  EXPECT_EQ(session.seeds(), (std::vector<vertex_id>{1, 2}));
  EXPECT_TRUE(session.up_to_date());
}

TEST(Interactive, FilterVerticesIsolatesThemInOneEpoch) {
  const auto g = make_graph(16);
  service::exploration_session session{graph::csr_graph(g)};
  session.set_seeds(std::vector<vertex_id>{5, 60, 120});
  (void)session.tree();

  // Remove a "class of vertices": every id in [150, 160) that is not a seed.
  session.filter_vertices(
      [](vertex_id v) { return v < 150 || v >= 160; });
  EXPECT_EQ(session.current_epoch(), 1u);
  EXPECT_FALSE(session.up_to_date());
  for (vertex_id v = 150; v < 160; ++v) {
    EXPECT_EQ(session.graph().degree(v), 0u) << v;
  }
  // Removed vertices can no longer appear in the tree.
  const auto& after = session.tree();
  for (const auto& e : after.tree_edges) {
    EXPECT_TRUE(e.source < 150 || e.source >= 160);
    EXPECT_TRUE(e.target < 150 || e.target >= 160);
  }

  // Bit-identical to a fresh solve on a manually vertex-filtered graph.
  graph::edge_list survivors(g.num_vertices());
  for (vertex_id u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vertex_id t = nbrs[i];
      const auto gone = [](vertex_id v) { return v >= 150 && v < 160; };
      if (u < t && !gone(u) && !gone(t)) {
        survivors.add_undirected_edge(u, t, wts[i]);
      }
    }
  }
  core::solver_config reference_config;
  reference_config.allow_disconnected_seeds = true;
  const auto reference = core::solve_steiner_tree(
      graph::csr_graph(survivors), session.seeds(), reference_config);
  EXPECT_EQ(after.tree_edges, reference.tree_edges);
  EXPECT_EQ(after.total_distance, reference.total_distance);
}

TEST(Interactive, FilterVerticesRejectsSeedsAndLeavesStateUntouched) {
  service::exploration_session session(make_graph(17));
  session.set_seeds(std::vector<vertex_id>{5, 60, 120});
  (void)session.tree();
  // Removing a seed vertex is an error, reported before anything applies.
  EXPECT_THROW(session.filter_vertices([](vertex_id v) { return v != 60; }),
               std::invalid_argument);
  EXPECT_THROW(session.remove_vertices(std::vector<vertex_id>{4, 5}),
               std::invalid_argument);
  EXPECT_THROW(session.remove_vertices(std::vector<vertex_id>{100000}),
               std::out_of_range);
  EXPECT_EQ(session.current_epoch(), 0u);  // no epoch was derived
  EXPECT_TRUE(session.up_to_date());       // cached tree still stands

  // After explicitly removing the seed, the same filter is legal.
  session.remove_seed(60);
  session.filter_vertices([](vertex_id v) { return v != 60; });
  EXPECT_EQ(session.current_epoch(), 1u);
  EXPECT_EQ(session.graph().degree(60), 0u);
  (void)session.tree();  // solvable: remaining seeds never lost their edges
}

TEST(Interactive, RemoveVerticesWithNoEdgesIsANoOp) {
  // An already-isolated victim contributes no edits: no epoch is derived.
  graph::edge_list list(4);
  list.add_undirected_edge(0, 1, 3);
  list.add_undirected_edge(1, 2, 4);
  service::exploration_session session{graph::csr_graph(list)};
  session.set_seeds(std::vector<vertex_id>{0, 2});
  (void)session.tree();
  session.remove_vertices(std::vector<vertex_id>{3});  // vertex 3 is isolated
  EXPECT_EQ(session.current_epoch(), 0u);
  EXPECT_TRUE(session.up_to_date());
}

TEST(Interactive, ParallelEdgesFilterAndReweightActOnPairs) {
  // Epoch edits act per undirected pair; parallel edges are judged by their
  // minimum weight (the only arc shortest paths use).
  graph::edge_list list(4);
  list.add_undirected_edge(0, 1, 9);
  list.add_undirected_edge(0, 1, 12);  // heavier parallel arc
  list.add_undirected_edge(1, 2, 4);
  list.add_undirected_edge(2, 3, 20);
  list.add_undirected_edge(0, 3, 15);
  list.add_undirected_edge(0, 3, 16);  // both above the cutoff below
  service::exploration_session session{graph::csr_graph(list)};
  session.set_seeds(std::vector<vertex_id>{0, 2});
  (void)session.tree();

  session.filter_edges_above(10);
  EXPECT_EQ(session.current_epoch(), 1u);
  const graph::csr_graph& g = session.graph();
  // (0,1): min 9 kept, heavier parallel collapsed onto it.
  EXPECT_EQ(g.edge_weight(0, 1), std::optional<weight_t>(9));
  // (2,3) and both (0,3) arcs dropped — one disable each, no throw.
  EXPECT_FALSE(g.edge_weight(2, 3).has_value());
  EXPECT_FALSE(g.edge_weight(0, 3).has_value());
  EXPECT_EQ(g.degree(3), 0u);

  // reweight sees each pair's minimum once.
  session.reweight([](vertex_id, vertex_id, weight_t w) { return w * 2; });
  EXPECT_EQ(session.graph().edge_weight(0, 1), std::optional<weight_t>(18));
  EXPECT_EQ(session.graph().edge_weight(1, 2), std::optional<weight_t>(8));
  (void)session.tree();  // still solvable after the edits
}

}  // namespace

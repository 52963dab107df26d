// Shared distance substrate tests (service/distshare/): fragment store
// lifecycle, landmark oracle bound validity, bit-identical fragment-seeded /
// oracle-pruned solves (sequential + threaded), and concurrent borrow stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/warm_start.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "service/distshare/landmark_oracle.hpp"
#include "service/distshare/sssp_fragment_store.hpp"
#include "service/steiner_service.hpp"
#include "util/random.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::service::distshare;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_connected_graph(int n, weight_t w_hi, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x99);
  graph::connect_components(list, w_hi + 1, seed);
  return graph::csr_graph(list);
}

std::vector<vertex_id> random_seeds(const graph::csr_graph& g, std::size_t k,
                                    util::rng& gen) {
  std::vector<vertex_id> seeds;
  while (seeds.size() < k) {
    const vertex_id v = gen.uniform(0, g.num_vertices() - 1);
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
  }
  return seeds;
}

void expect_same_tree(const core::steiner_result& a,
                      const core::steiner_result& b) {
  EXPECT_EQ(a.total_distance, b.total_distance);
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.spans_all_seeds, b.spans_all_seeds);
}

/// Converged labelling + fragments for `seeds`, published into `store`.
core::solve_artifacts capture_and_publish(const graph::csr_graph& g,
                                          std::vector<vertex_id> seeds,
                                          sssp_fragment_store& store,
                                          std::uint64_t epoch_id = 0,
                                          double cost = 1.0) {
  std::sort(seeds.begin(), seeds.end());
  core::solve_artifacts artifacts;
  (void)core::solve_steiner_tree_assisted(g, seeds, {}, {}, &artifacts);
  (void)store.publish_from_state(g.fingerprint(), epoch_id, artifacts.state,
                                 seeds, cost);
  return artifacts;
}

// ---- fragment store lifecycle -----------------------------------------------

TEST(FragmentStore, PublishThenBorrowRoundTrips) {
  const auto g = make_connected_graph(200, 15, 7);
  sssp_fragment_store store;
  const std::vector<vertex_id> seeds{10, 60, 150};
  const auto artifacts = capture_and_publish(g, seeds, store);

  const auto stats = store.snapshot();
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.fragments, 3u);
  EXPECT_GT(stats.bytes_in_use, 0u);

  for (const vertex_id s : seeds) {
    const fragment_ptr frag = store.borrow(g.fingerprint(), s);
    ASSERT_NE(frag, nullptr);
    EXPECT_EQ(frag->seed, s);
    ASSERT_FALSE(frag->vertices.empty());
    // The seed itself leads the distance-sorted membership at distance 0.
    EXPECT_EQ(frag->vertices.front(), s);
    EXPECT_EQ(frag->distance.front(), 0u);
    EXPECT_EQ(frag->radius, frag->distance.back());
    // Labels match the converged state, and the set is pred-closed.
    for (std::size_t i = 0; i < frag->vertices.size(); ++i) {
      const vertex_id v = frag->vertices[i];
      EXPECT_EQ(artifacts.state.src[v], s);
      EXPECT_EQ(frag->distance[i], artifacts.state.distance[v]);
      EXPECT_EQ(frag->pred[i], artifacts.state.pred[v]);
      EXPECT_TRUE(std::find(frag->vertices.begin(), frag->vertices.end(),
                            frag->pred[i]) != frag->vertices.end());
    }
  }
  EXPECT_EQ(store.borrow(g.fingerprint(), 11), nullptr);  // not a seed
  EXPECT_EQ(store.borrow(g.fingerprint() ^ 1, 10), nullptr);  // other epoch
  EXPECT_EQ(store.snapshot().hits, 3u);
  EXPECT_EQ(store.snapshot().misses, 2u);
}

TEST(FragmentStore, TruncationIsPredClosedAndDistanceSorted) {
  const auto g = make_connected_graph(300, 9, 11);
  fragment_store_config cfg;
  cfg.max_fragment_vertices = 12;
  sssp_fragment_store store(cfg);
  (void)capture_and_publish(g, {5, 200}, store);
  for (const vertex_id s : {vertex_id{5}, vertex_id{200}}) {
    const fragment_ptr frag = store.borrow(g.fingerprint(), s);
    ASSERT_NE(frag, nullptr);
    EXPECT_LE(frag->vertices.size(), 12u);
    EXPECT_TRUE(std::is_sorted(frag->distance.begin(), frag->distance.end()));
    for (std::size_t i = 0; i < frag->vertices.size(); ++i) {
      EXPECT_TRUE(std::find(frag->vertices.begin(), frag->vertices.end(),
                            frag->pred[i]) != frag->vertices.end())
          << "pred chain truncated for vertex " << frag->vertices[i];
    }
  }
}

TEST(FragmentStore, CostAwareEvictionKeepsReusedAndExpensive) {
  const auto g = make_connected_graph(120, 10, 13);
  fragment_store_config cfg;
  cfg.shards = 1;  // deterministic shared budget
  cfg.max_fragment_vertices = 0;
  sssp_fragment_store store(cfg);
  (void)capture_and_publish(g, {3, 70}, store, /*epoch_id=*/0, /*cost=*/8.0);
  // Borrow both so the first pair carries reuse weight.
  ASSERT_NE(store.borrow(g.fingerprint(), 3), nullptr);
  ASSERT_NE(store.borrow(g.fingerprint(), 70), nullptr);

  // Shrink the budget by re-creating the store? No — instead publish cheap
  // one-off cells until the budget evicts: the cheap, never-borrowed ones
  // must go first.
  const auto before = store.snapshot();
  ASSERT_EQ(before.evictions, 0u);
  fragment_store_config tight = cfg;
  tight.memory_budget_bytes = before.bytes_in_use + 200;
  sssp_fragment_store bounded(tight);
  (void)capture_and_publish(g, {3, 70}, bounded, 0, /*cost=*/8.0);
  ASSERT_NE(bounded.borrow(g.fingerprint(), 3), nullptr);
  ASSERT_NE(bounded.borrow(g.fingerprint(), 70), nullptr);
  (void)capture_and_publish(g, {20, 90}, bounded, 0, /*cost=*/0.01);
  const auto after = bounded.snapshot();
  EXPECT_GT(after.evictions, 0u);
  // The hot/expensive fragments survived eviction pressure.
  EXPECT_NE(bounded.borrow(g.fingerprint(), 3), nullptr);
  EXPECT_NE(bounded.borrow(g.fingerprint(), 70), nullptr);
}

TEST(FragmentStore, EpochRetirementPurges) {
  const auto g = make_connected_graph(100, 10, 17);
  sssp_fragment_store store;
  core::solve_artifacts old_epoch, new_epoch;
  const std::vector<vertex_id> old_seeds{2, 50};
  const std::vector<vertex_id> new_seeds{8, 77};
  (void)core::solve_steiner_tree_assisted(g, old_seeds, {}, {}, &old_epoch);
  (void)core::solve_steiner_tree_assisted(g, new_seeds, {}, {}, &new_epoch);
  // Distinct fingerprints stand in for two epochs' graph contents.
  const std::size_t p_old = store.publish_from_state(
      g.fingerprint(), /*epoch_id=*/3, old_epoch.state, old_seeds, 1.0);
  const std::size_t p_new = store.publish_from_state(
      g.fingerprint() ^ 1, /*epoch_id=*/5, new_epoch.state, new_seeds, 1.0);
  ASSERT_GT(p_old, 0u);
  ASSERT_GT(p_new, 0u);
  EXPECT_EQ(store.snapshot().fragments, p_old + p_new);
  EXPECT_EQ(store.retire_epochs_before(4), p_old);
  const auto stats = store.snapshot();
  EXPECT_EQ(stats.fragments, p_new);
  EXPECT_EQ(stats.retired, p_old);
  EXPECT_EQ(store.borrow(g.fingerprint(), 2), nullptr);
}

TEST(FragmentStore, BorrowedFragmentSurvivesEviction) {
  const auto g = make_connected_graph(150, 10, 19);
  sssp_fragment_store store;
  (void)capture_and_publish(g, {4, 90}, store);
  const fragment_ptr held = store.borrow(g.fingerprint(), 4);
  ASSERT_NE(held, nullptr);
  store.clear();
  EXPECT_EQ(store.snapshot().fragments, 0u);
  // The ref-counted fragment outlives its index slot.
  EXPECT_EQ(held->seed, 4u);
  EXPECT_FALSE(held->vertices.empty());
}

// ---- landmark oracle --------------------------------------------------------

TEST(LandmarkOracle, BoundsSandwichTrueDistances) {
  util::rng gen(23);
  for (int round = 0; round < 4; ++round) {
    const auto g = make_connected_graph(180 + 40 * round, 12, 23 + round);
    landmark_oracle::config cfg;
    cfg.num_landmarks = 6;
    landmark_oracle oracle(cfg);
    oracle.advance_epoch(g.fingerprint(), {});
    oracle.build(g, g.fingerprint());
    ASSERT_TRUE(oracle.stats().built);
    EXPECT_TRUE(oracle.stats().upper_valid);

    const std::vector<vertex_id> sources = random_seeds(g, 4, gen);
    std::vector<vertex_id> canonical = sources;
    std::sort(canonical.begin(), canonical.end());
    const auto ub = oracle.prune_bounds(g.fingerprint(), canonical);
    ASSERT_EQ(ub.size(), g.num_vertices());

    // Truth: min over sources of the exact SSSP distance.
    std::vector<weight_t> truth(g.num_vertices(), graph::k_inf_distance);
    for (const vertex_id s : sources) {
      const auto d = graph::dijkstra(g, s).distance;
      for (vertex_id v = 0; v < g.num_vertices(); ++v) {
        truth[v] = std::min(truth[v], d[v]);
      }
    }
    for (vertex_id v = 0; v < g.num_vertices(); ++v) {
      // ub[v] >= min_s d(s, v): pruning strictly above ub is safe.
      EXPECT_GE(ub[v], truth[v]) << "ub violated at " << v;
    }
  }
}

TEST(LandmarkOracle, EdgeDeltaDegradesTheRightBoundSide) {
  const auto g = make_connected_graph(120, 10, 29);
  landmark_oracle oracle({4, 2});
  oracle.advance_epoch(g.fingerprint(), {});
  oracle.build(g, g.fingerprint());
  ASSERT_TRUE(oracle.stats().upper_valid);
  EXPECT_FALSE(oracle.needs_build(g.fingerprint()));

  // A lowered edge shrinks distances: stale tables still overstate them, so
  // the prune bounds hold on the new epoch and no rebuild is needed.
  graph::applied_edge_edit lowered;
  lowered.u = g.neighbors(0).empty() ? 1 : 0;
  lowered.v = g.neighbors(0).empty() ? 2 : g.neighbors(0).front();
  lowered.had_edge = lowered.has_edge = true;
  lowered.old_weight = 5;
  lowered.new_weight = 1;
  oracle.advance_epoch(g.fingerprint() ^ 0xA, {&lowered, 1});
  EXPECT_TRUE(oracle.stats().upper_valid);
  EXPECT_FALSE(
      oracle.prune_bounds(g.fingerprint() ^ 0xA, std::vector<vertex_id>{0})
          .empty());
  EXPECT_FALSE(oracle.needs_build(g.fingerprint() ^ 0xA));

  // A raised edge grows distances: stale tables may understate, the bounds
  // die until the next build.
  graph::applied_edge_edit raised = lowered;
  raised.old_weight = 1;
  raised.new_weight = 5;
  oracle.advance_epoch(g.fingerprint() ^ 0xB, {&raised, 1});
  EXPECT_FALSE(oracle.stats().upper_valid);
  EXPECT_TRUE(
      oracle.prune_bounds(g.fingerprint() ^ 0xB, std::vector<vertex_id>{0})
          .empty());
  EXPECT_TRUE(oracle.needs_build(g.fingerprint() ^ 0xB));
  // Bounds for the exact build fingerprint stay fully usable (pinned epoch).
  EXPECT_FALSE(
      oracle.prune_bounds(g.fingerprint(), std::vector<vertex_id>{0}).empty());
}

// ---- bit-identity of assisted solves ----------------------------------------

class AssistedSolve : public ::testing::TestWithParam<runtime::execution_mode> {
};

TEST_P(AssistedSolve, FragmentSeededAndPrunedMatchesCold) {
  util::rng gen(31);
  core::solver_config config;
  config.num_ranks = 8;
  config.mode = GetParam();
  if (config.mode == runtime::execution_mode::parallel_threads) {
    config.num_threads = 4;
  }
  config.validate = true;

  for (int round = 0; round < 6; ++round) {
    const auto g = make_connected_graph(160 + 30 * round, 14, 100 + round);
    // Donor solve on a seed set overlapping the query's.
    const std::vector<vertex_id> donor_seeds = random_seeds(g, 8, gen);
    sssp_fragment_store store;
    (void)capture_and_publish(g, donor_seeds, store);

    // Query: a random subset of the donor's seeds plus fresh ones.
    std::vector<vertex_id> seeds;
    for (const vertex_id s : donor_seeds) {
      if (gen.uniform(0, 1) == 0) seeds.push_back(s);
    }
    for (const vertex_id s : random_seeds(g, 3, gen)) {
      if (std::find(seeds.begin(), seeds.end(), s) == seeds.end()) {
        seeds.push_back(s);
      }
    }
    if (seeds.size() < 2) seeds = donor_seeds;
    std::sort(seeds.begin(), seeds.end());

    std::vector<core::sssp_fragment_view> views;
    std::vector<fragment_ptr> borrowed;
    for (const vertex_id s : seeds) {
      if (fragment_ptr f = store.borrow(g.fingerprint(), s)) {
        views.push_back(f->view());
        borrowed.push_back(std::move(f));
      }
    }
    landmark_oracle oracle({5, 2});
    oracle.advance_epoch(g.fingerprint(), {});
    oracle.build(g, g.fingerprint());
    const auto bounds = oracle.prune_bounds(g.fingerprint(), seeds);

    core::solve_assists assists;
    assists.fragments = views;
    assists.prune_upper_bound = bounds;
    core::assist_stats astats;
    const auto assisted =
        core::solve_steiner_tree_assisted(g, seeds, assists, config,
                                          /*capture=*/nullptr, &astats);
    const auto cold = core::solve_steiner_tree(g, seeds, config);
    expect_same_tree(assisted, cold);
    if (!views.empty()) {
      EXPECT_EQ(astats.fragments_injected, views.size());
      EXPECT_GT(astats.preseeded_vertices, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AssistedSolve,
                         ::testing::Values(
                             runtime::execution_mode::async,
                             runtime::execution_mode::parallel_threads));

// ---- concurrent borrow stress ----------------------------------------------

TEST(FragmentStore, ConcurrentPublishBorrowStress) {
  const auto g = make_connected_graph(160, 10, 37);
  sssp_fragment_store store;
  core::solve_artifacts artifacts;
  std::vector<vertex_id> seeds{5, 40, 80, 120, 150};
  (void)core::solve_steiner_tree_assisted(g, seeds, {}, {}, &artifacts);

  std::atomic<std::uint64_t> borrowed_total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      util::rng gen(1000 + t);
      for (int i = 0; i < 200; ++i) {
        if (i % 20 == 0) {
          (void)store.publish_from_state(g.fingerprint(), 0, artifacts.state,
                                         seeds, 0.5);
        }
        const vertex_id s = seeds[gen.uniform(0, seeds.size() - 1)];
        if (const fragment_ptr f = store.borrow(g.fingerprint(), s)) {
          // Validate the borrowed view while other threads publish/evict.
          ASSERT_EQ(f->seed, s);
          ASSERT_EQ(f->vertices.size(), f->distance.size());
          borrowed_total.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(borrowed_total.load(), 0u);
  const auto stats = store.snapshot();
  EXPECT_EQ(stats.hits + stats.misses, 6u * 200u);
}

// ---- service-level integration ----------------------------------------------

service::service_config distshare_config(std::size_t workers) {
  service::service_config config;
  config.exec.num_threads = workers;
  config.exec.queue_capacity = 64;
  config.solver.num_ranks = 8;
  config.enable_warm_start = false;  // isolate the fragment path from donors
  config.enable_cache = false;       // and from the result cache
  return config;
}

TEST(ServiceDistshare, OverlappingQueriesHitFragmentsAndMatch) {
  const auto g = make_connected_graph(220, 12, 41);
  service::steiner_service svc(graph::csr_graph(g), distshare_config(1));
  service::steiner_service plain_svc(graph::csr_graph(g), [] {
    auto c = distshare_config(1);
    c.enable_fragment_reuse = false;
    return c;
  }());

  service::query first;
  first.seeds = {10, 60, 110, 160, 200};
  const auto cold = svc.solve(service::request{first});
  EXPECT_EQ(cold.kind, service::solve_kind::cold);
  EXPECT_EQ(cold.assist.fragments_injected, 0u);

  service::query second;
  second.seeds = {10, 60, 110, 160, 30};  // 4/5 overlap
  const auto assisted = svc.solve(service::request{second});
  const auto reference = plain_svc.solve(service::request{second});
  EXPECT_EQ(assisted.kind, service::solve_kind::cold);
  EXPECT_GT(assisted.assist.fragments_injected, 0u);
  EXPECT_GT(assisted.assist.preseeded_vertices, 0u);
  EXPECT_EQ(assisted.result.tree_edges, reference.result.tree_edges);
  EXPECT_EQ(assisted.result.total_distance, reference.result.total_distance);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.fragment_assisted, 1u);
  EXPECT_GE(stats.fragment_hits, 4u);
  EXPECT_GT(stats.fragments.published, 0u);
  // Phase-1 repeat work shrank: the assisted solve processed fewer visitors.
  const auto* cold_voronoi =
      cold.result.phases.find(runtime::phase_names::voronoi);
  const auto* warm_voronoi =
      assisted.result.phases.find(runtime::phase_names::voronoi);
  ASSERT_NE(cold_voronoi, nullptr);
  ASSERT_NE(warm_voronoi, nullptr);
  EXPECT_LT(warm_voronoi->visitors_processed, cold_voronoi->visitors_processed);
}

TEST(ServiceDistshare, EpochAdvanceRetiresFragmentsAndOracle) {
  const auto g = make_connected_graph(150, 10, 43);
  auto config = distshare_config(1);
  config.epochs.max_live_epochs = 1;  // advancing retires immediately
  config.enable_oracle = true;
  config.oracle.num_landmarks = 4;
  service::steiner_service svc(graph::csr_graph(g), config);
  svc.warm_distance_oracle();
  ASSERT_TRUE(svc.oracle_stats().built);
  ASSERT_TRUE(svc.oracle_stats().upper_valid);

  service::query q;
  q.seeds = {5, 70, 130};
  (void)svc.solve(service::request{q});
  ASSERT_GT(svc.fragments().snapshot().fragments, 0u);

  // Raise an existing edge: fragments retire with their epoch, the oracle's
  // upper side dies with the raise.
  const vertex_id u = 5;
  ASSERT_FALSE(g.neighbors(u).empty());
  const vertex_id v = g.neighbors(u).front();
  const weight_t w = g.weights(u).front();
  (void)svc.advance_epoch(
      {{graph::edge_edit::reweight(u, v, w + 10)}});
  EXPECT_EQ(svc.fragments().snapshot().fragments, 0u);
  EXPECT_FALSE(svc.oracle_stats().upper_valid);

  // Queries on the new epoch still solve correctly (no assists available).
  const auto after = svc.solve(service::request{q});
  EXPECT_EQ(after.kind, service::solve_kind::cold);
  EXPECT_EQ(after.assist.fragments_injected, 0u);

  // A blocking re-warm restores the bounds for the new epoch.
  svc.warm_distance_oracle();
  EXPECT_TRUE(svc.oracle_stats().upper_valid);
}

TEST(ServiceDistshare, OracleAssistedServiceSolvesMatchPlain) {
  const auto g = make_connected_graph(200, 12, 47);
  auto config = distshare_config(2);
  config.enable_oracle = true;
  config.oracle.num_landmarks = 6;
  service::steiner_service svc(graph::csr_graph(g), config);
  svc.warm_distance_oracle();
  service::steiner_service plain_svc(graph::csr_graph(g), distshare_config(2));

  util::rng gen(49);
  for (int i = 0; i < 5; ++i) {
    service::query q;
    q.seeds = random_seeds(g, 6, gen);
    const auto pruned = svc.solve(service::request{q});
    const auto reference = plain_svc.solve(service::request{q});
    EXPECT_EQ(pruned.result.tree_edges, reference.result.tree_edges);
    EXPECT_EQ(pruned.result.total_distance, reference.result.total_distance);
  }
  EXPECT_GT(svc.stats().oracle_builds, 0u);
}

}  // namespace

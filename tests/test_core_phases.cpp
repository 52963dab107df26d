// Integration tests for the core algorithm phases: distributed Voronoi
// against the sequential oracle, distance-graph construction, MST, pruning
// and tree-edge collection.
#include <gtest/gtest.h>

#include <tuple>

#include "core/distance_graph.hpp"
#include "core/mst_prim.hpp"
#include "core/pruning.hpp"
#include "core/steiner_solver.hpp"
#include "core/steiner_state.hpp"
#include "core/tree_edges.hpp"
#include "core/voronoi.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "runtime/comm.hpp"
#include "runtime/net/dist_solver.hpp"
#include "runtime/parallel/worker_pool.hpp"
#include "seed/seed_select.hpp"
#include "util/random.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::core;
using namespace dsteiner::runtime;
using graph::vertex_id;
using graph::weight_t;

graph::edge_list make_test_edges(int n, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, 40, seed ^ 0x77);
  graph::connect_components(list, 41, seed);
  return list;
}

graph::csr_graph make_test_graph(int n, std::uint64_t seed) {
  return graph::csr_graph(make_test_edges(n, seed));
}

std::vector<vertex_id> pick_seeds(const graph::csr_graph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::rng gen(seed);
  const auto picks =
      util::sample_without_replacement(g.num_vertices(), count, gen);
  return {picks.begin(), picks.end()};
}

// ---- Distributed Voronoi equals the sequential oracle under every
// combination of ranks, queue policy, engine and delegate setting, so relays
// and plain scatters both pass the sender-side filter.

class VoronoiDistributed
    : public ::testing::TestWithParam<
          std::tuple<int, queue_policy, execution_mode, bool>> {};

TEST_P(VoronoiDistributed, MatchesSequentialOracle) {
  const auto [ranks, policy, mode, delegates] = GetParam();
  const auto g = make_test_graph(150, 7);
  const auto seeds = pick_seeds(g, 8, 21);

  const dist_graph dgraph(
      g, {ranks, partition_scheme::hash, delegates, delegates ? 8u : 0u});
  steiner_state state(g.num_vertices());
  engine_config config{policy, mode, 16, cost_model{}};
  config.num_threads = 2;
  const auto metrics = compute_voronoi_cells(dgraph, seeds, state, config);

  const auto oracle = graph::multi_source_voronoi(g, seeds);
  EXPECT_EQ(state.distance, oracle.distance);
  EXPECT_EQ(state.src, oracle.src);
  EXPECT_EQ(state.pred, oracle.pred);
  EXPECT_GT(metrics.visitors_processed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, VoronoiDistributed,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(queue_policy::fifo,
                                         queue_policy::priority),
                       ::testing::Values(execution_mode::async,
                                         execution_mode::bsp,
                                         execution_mode::parallel_threads),
                       ::testing::Values(false, true)));

TEST(VoronoiDistributed, DropsDominatedRemoteEmissions) {
  // Block partition over 2 ranks: {0, 1, 2} on rank 0, {3, 4, 5} on rank 1.
  // Rank-0 vertices 1 (d = 1) and 2 (d = 5) both neighbour rank-1 seed 3.
  // Vertex 1 scatters (r = 2) to 3 first; vertex 2's later r = 15 is
  // dominated and never leaves rank 0. Rank 1 sends 3's scatter to 1 and 2.
  graph::edge_list list(6);
  list.add_undirected_edge(0, 1, 1);
  list.add_undirected_edge(0, 2, 5);
  list.add_undirected_edge(1, 3, 1);
  list.add_undirected_edge(2, 3, 10);
  list.add_undirected_edge(3, 4, 1);
  list.add_undirected_edge(4, 5, 1);
  const graph::csr_graph g(list);
  const std::vector<vertex_id> seeds{0, 3};
  const dist_graph dgraph(g, {2, partition_scheme::block, false, 0});
  ASSERT_EQ(dgraph.owner(2), 0);
  ASSERT_EQ(dgraph.owner(3), 1);
  const auto oracle = graph::multi_source_voronoi(g, seeds);

  for (const execution_mode mode :
       {execution_mode::async, execution_mode::bsp,
        execution_mode::parallel_threads}) {
    steiner_state state(g.num_vertices());
    engine_config config{queue_policy::priority, mode, 16, cost_model{}};
    config.num_threads = 2;
    const auto metrics = compute_voronoi_cells(dgraph, seeds, state, config);
    // Without the filter: 2 from rank 0 (r = 2 and r = 15) + 2 from rank 1.
    EXPECT_EQ(metrics.messages_remote, 3u) << static_cast<int>(mode);
    EXPECT_EQ(state.distance, oracle.distance);
    EXPECT_EQ(state.src, oracle.src);
    EXPECT_EQ(state.pred, oracle.pred);
  }

  // Net phase metrics are the reporting rank's own: rank 0 sends only r = 2.
  solver_config config;
  config.num_ranks = 2;
  config.scheme = partition_scheme::block;
  config.use_delegates = false;
  const auto net = net::solve_loopback(g, seeds, config, 2);
  const phase_metrics* voronoi = net.phases.find(phase_names::voronoi);
  ASSERT_NE(voronoi, nullptr);
  EXPECT_EQ(voronoi->messages_remote, 1u);
  EXPECT_EQ(net.tree_edges, solve_steiner_tree(g, seeds, config).tree_edges);
}

TEST(VoronoiDistributed, PriorityQueueSendsFewerMessages) {
  // The paper's core claim (Fig. 6): message prioritization cuts traffic.
  graph::edge_list list = graph::generate_erdos_renyi(600, 2400, 3);
  graph::assign_uniform_weights(list, 1, 1000, 5);
  graph::connect_components(list, 1001, 3);
  const graph::csr_graph g(list);
  const auto seeds = pick_seeds(g, 6, 9);
  const dist_graph dgraph(g, {4, partition_scheme::hash, false, 0});

  steiner_state fifo_state(g.num_vertices());
  steiner_state prio_state(g.num_vertices());
  const auto fifo_metrics = compute_voronoi_cells(
      dgraph, seeds, fifo_state,
      {queue_policy::fifo, execution_mode::async, 16, cost_model{}});
  const auto prio_metrics = compute_voronoi_cells(
      dgraph, seeds, prio_state,
      {queue_policy::priority, execution_mode::async, 16, cost_model{}});

  EXPECT_EQ(fifo_state.distance, prio_state.distance);  // result identical
  EXPECT_LT(prio_metrics.messages_total(), fifo_metrics.messages_total());
}

// ---- Distance graph construction.

/// make_test_graph plus a hub (vertex 0, degree >= 24, so a delegate at
/// threshold 16) and a self-loop, so the scan's delegate rule and self-loop
/// skip are both exercised.
graph::csr_graph make_hub_graph(int n, std::uint64_t seed) {
  graph::edge_list list = make_test_edges(n, seed);
  for (vertex_id v = 5; v < static_cast<vertex_id>(n); v += 5) {
    list.add_undirected_edge(0, v, 10 + v % 30);
  }
  list.add_undirected_edge(7, 7, 3);
  return graph::csr_graph(list);
}

/// Engine config for `mode`; parallel_threads borrows `pool`, as a solve's
/// engine_context does.
engine_config phase_config(execution_mode mode, parallel::worker_pool& pool) {
  engine_config config{queue_policy::priority, mode, 16, cost_model{}};
  if (mode == execution_mode::parallel_threads) {
    config.num_threads = pool.size();
    config.pool = &pool;
  }
  return config;
}

/// Sequential reference: every undirected edge scanned once.
cross_edge_map sequential_scan(const graph::csr_graph& g,
                               const steiner_state& state) {
  cross_edge_map reference;
  for (vertex_id u = 0; u < g.num_vertices(); ++u) {
    if (state.src[u] == graph::k_no_vertex) continue;
    const auto nbrs = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vertex_id v = nbrs[i];
      if (u >= v || state.src[v] == graph::k_no_vertex) continue;
      if (state.src[u] == state.src[v]) continue;
      const seed_pair key{std::min(state.src[u], state.src[v]),
                          std::max(state.src[u], state.src[v])};
      const cross_edge_entry candidate{
          state.distance[u] + wts[i] + state.distance[v], std::min(u, v),
          std::max(u, v), wts[i]};
      const auto [it, inserted] = reference.emplace(key, candidate);
      if (!inserted) it->second = min_entry(it->second, candidate);
    }
  }
  return reference;
}

void expect_maps_equal(const cross_edge_map& map,
                       const cross_edge_map& reference, int rank) {
  ASSERT_EQ(map.size(), reference.size()) << "rank " << rank;
  for (const auto& [key, entry] : reference) {
    const auto it = map.find(key);
    ASSERT_NE(it, map.end()) << "rank " << rank;
    EXPECT_EQ(it->second, entry) << "rank " << rank;
  }
}

class DistanceGraphPhase
    : public ::testing::TestWithParam<std::tuple<int, bool, execution_mode>> {};

TEST_P(DistanceGraphPhase, MatchesSequentialScan) {
  const auto [ranks, dense, mode] = GetParam();
  const auto g = make_hub_graph(120, 11);
  const auto seeds = pick_seeds(g, 6, 13);

  const dist_graph dgraph(g, {ranks, partition_scheme::hash, true, 16});
  ASSERT_GT(dgraph.delegate_count(), 0u);
  parallel::worker_pool pool(2);
  const engine_config config = phase_config(mode, pool);
  steiner_state state(g.num_vertices());
  (void)compute_voronoi_cells(dgraph, seeds, state, config);

  std::vector<cross_edge_map> per_rank;
  (void)find_local_min_edges(dgraph, state, per_rank, config);
  const communicator comm(ranks, cost_model{});
  global_reduce_options options;
  options.dense = dense;
  options.seeds = seeds;
  (void)reduce_global_min_edges(comm, per_rank, options);

  const cross_edge_map reference = sequential_scan(g, state);
  for (int r = 0; r < ranks; ++r) {
    expect_maps_equal(per_rank[static_cast<std::size_t>(r)], reference, r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SparseAndDense, DistanceGraphPhase,
    ::testing::Combine(::testing::Values(1, 3, 8), ::testing::Values(false, true),
                       ::testing::Values(execution_mode::async,
                                         execution_mode::bsp,
                                         execution_mode::parallel_threads)));

TEST(DistanceGraphPhase, PartialScanOfAllReachedEqualsFullScan) {
  // The warm rule (both directions, split by owner) over every reached
  // vertex rediscovers exactly the full scan's bridges.
  const auto g = make_hub_graph(120, 11);
  const auto seeds = pick_seeds(g, 6, 13);
  constexpr int k_ranks = 3;
  const dist_graph dgraph(g, {k_ranks, partition_scheme::hash, true, 16});
  ASSERT_GT(dgraph.delegate_count(), 0u);
  steiner_state state(g.num_vertices());
  (void)compute_voronoi_cells(dgraph, seeds, state, engine_config{});
  std::vector<vertex_id> reached;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (state.reached(v)) reached.push_back(v);
  }

  const communicator comm(k_ranks, cost_model{});
  std::vector<cross_edge_map> full;
  (void)find_local_min_edges(dgraph, state, full, engine_config{});
  (void)reduce_global_min_edges(comm, full, {});
  parallel::worker_pool pool(2);
  for (const execution_mode mode :
       {execution_mode::async, execution_mode::bsp,
        execution_mode::parallel_threads}) {
    std::vector<cross_edge_map> partial;
    (void)find_local_min_edges_partial(dgraph, state, reached, partial,
                                       phase_config(mode, pool));
    (void)reduce_global_min_edges(comm, partial, {});
    for (int r = 0; r < k_ranks; ++r) {
      expect_maps_equal(partial[static_cast<std::size_t>(r)],
                        full[static_cast<std::size_t>(r)], r);
    }
  }
}

TEST(DistanceGraphPhase, AccountingCountsEachEdgeOnce) {
  const auto g = make_hub_graph(150, 5);
  const auto seeds = pick_seeds(g, 8, 9);
  constexpr int k_ranks = 4;
  const dist_graph dgraph(g, {k_ranks, partition_scheme::hash, true, 16});
  ASSERT_GT(dgraph.delegate_count(), 0u);
  steiner_state state(g.num_vertices());
  (void)compute_voronoi_cells(dgraph, seeds, state, engine_config{});

  // One Alg. 5 probe per undirected non-self-loop edge between reached
  // vertices; remote when its endpoints have different owners.
  std::uint64_t edges = 0;
  std::uint64_t cut = 0;
  for (vertex_id u = 0; u < g.num_vertices(); ++u) {
    for (const vertex_id v : g.neighbors(u)) {
      if (u >= v || !state.reached(u) || !state.reached(v)) continue;
      ++edges;
      if (dgraph.owner(u) != dgraph.owner(v)) ++cut;
    }
  }
  ASSERT_GT(cut, 0u);

  // The hub's owner scans none of its edges to non-delegates; the warm rule
  // scans every non-self-loop arc of a listed vertex.
  const vertex_id hub = 0;
  ASSERT_TRUE(dgraph.is_delegate(hub));
  std::uint64_t hub_to_delegates = 0;
  std::uint64_t hub_arcs = 0;
  for (const vertex_id v : g.neighbors(hub)) {
    if (v == hub || !state.reached(v)) continue;
    ++hub_arcs;
    if (dgraph.is_delegate(v) && hub < v) ++hub_to_delegates;
  }
  const std::vector<vertex_id> hub_only{hub};
  cross_edge_map en;
  EXPECT_EQ(scan_cross_edges(dgraph, state, cost_model{}, dgraph.owner(hub),
                             hub_only, false, en)
                .visitors_processed,
            hub_to_delegates);
  EXPECT_EQ(scan_cross_edges(dgraph, state, cost_model{}, dgraph.owner(hub),
                             hub_only, true, en)
                .visitors_processed,
            hub_arcs);

  const auto scan = [&](execution_mode mode, std::size_t threads) {
    parallel::worker_pool pool(threads);
    std::vector<cross_edge_map> per_rank;
    return find_local_min_edges(dgraph, state, per_rank,
                                phase_config(mode, pool));
  };
  const phase_metrics reference = scan(execution_mode::async, 1);
  EXPECT_EQ(reference.visitors_processed, edges);
  EXPECT_EQ(reference.messages_remote, cut);
  EXPECT_EQ(reference.messages_local, edges - cut);
  EXPECT_EQ(reference.rounds, 1u);
  EXPECT_GT(reference.sim_units, 0.0);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    for (const execution_mode mode :
         {execution_mode::async, execution_mode::bsp,
          execution_mode::parallel_threads}) {
      const phase_metrics m = scan(mode, threads);
      const auto label = ::testing::Message()
                         << "mode " << static_cast<int>(mode) << " threads "
                         << threads;
      EXPECT_EQ(m.visitors_processed, edges) << label;
      EXPECT_EQ(m.messages_remote, cut) << label;
      EXPECT_EQ(m.messages_local, edges - cut) << label;
      EXPECT_EQ(m.rounds, reference.rounds) << label;
      EXPECT_EQ(m.visitors_skipped, reference.visitors_skipped) << label;
      EXPECT_EQ(m.previsit_rejections, reference.previsit_rejections) << label;
      EXPECT_EQ(m.queue_peak_items, reference.queue_peak_items) << label;
      EXPECT_EQ(m.queue_peak_bytes, reference.queue_peak_bytes) << label;
      EXPECT_DOUBLE_EQ(m.sim_units, reference.sim_units) << label;
    }
  }
}

TEST(DistanceGraphPhase, SimTimeChargedOnEveryTransport) {
  const auto g = make_hub_graph(150, 5);
  const auto seeds = pick_seeds(g, 8, 9);
  solver_config config;
  config.num_ranks = 3;
  config.delegate_threshold = 16;
  const auto phase2_sim = [](const steiner_result& r) {
    const phase_metrics* m = r.phases.find(phase_names::local_min_edge);
    return m == nullptr ? 0.0 : m->sim_units;
  };
  EXPECT_GT(phase2_sim(solve_steiner_tree(g, seeds, config)), 0.0);
  solver_config threads = config;
  threads.mode = execution_mode::parallel_threads;
  threads.num_threads = 2;
  EXPECT_GT(phase2_sim(solve_steiner_tree(g, seeds, threads)), 0.0);
  EXPECT_GT(phase2_sim(net::solve_loopback(g, seeds, config, 3)), 0.0);
}

TEST(DistanceGraphPhase, ChunkedDenseMatchesMonolithic) {
  const auto g = make_test_graph(100, 17);
  const auto seeds = pick_seeds(g, 7, 19);
  const dist_graph dgraph(g, {4, partition_scheme::hash, false, 0});
  steiner_state state(g.num_vertices());
  const engine_config config{};
  (void)compute_voronoi_cells(dgraph, seeds, state, config);

  std::vector<cross_edge_map> mono, chunked;
  (void)find_local_min_edges(dgraph, state, mono, config);
  chunked = mono;
  const communicator comm(4, cost_model{});
  global_reduce_options mono_opts{true, seeds, 0};
  global_reduce_options chunk_opts{true, seeds, 3};
  (void)reduce_global_min_edges(comm, mono, mono_opts);
  (void)reduce_global_min_edges(comm, chunked, chunk_opts);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(mono[r].size(), chunked[r].size());
    for (const auto& [key, entry] : mono[r]) {
      EXPECT_EQ(chunked[r].at(key), entry);
    }
  }
}

TEST(DensePairIndex, IsABijection) {
  const std::size_t n = 9;
  std::vector<bool> hit(n * (n - 1) / 2, false);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t slot = dense_pair_index(i, j, n);
      ASSERT_LT(slot, hit.size());
      EXPECT_FALSE(hit[slot]);
      hit[slot] = true;
    }
  }
  for (const bool h : hit) EXPECT_TRUE(h);
}

// ---- MST of G'1 and pruning.

TEST(DistanceGraphMst, SpansSeedsOnConnectedGraph) {
  const auto g = make_test_graph(80, 23);
  const auto seeds = pick_seeds(g, 5, 29);
  const dist_graph dgraph(g, {4, partition_scheme::hash, false, 0});
  steiner_state state(g.num_vertices());
  const engine_config config{};
  (void)compute_voronoi_cells(dgraph, seeds, state, config);
  std::vector<cross_edge_map> per_rank;
  (void)find_local_min_edges(dgraph, state, per_rank, config);
  const communicator comm(4, cost_model{});
  (void)reduce_global_min_edges(comm, per_rank, {});

  runtime::phase_metrics metrics;
  const auto mst = compute_distance_graph_mst(per_rank.front(), seeds, comm,
                                              metrics);
  EXPECT_TRUE(mst.spans_all_seeds);
  EXPECT_EQ(mst.mst_pairs.size(), seeds.size() - 1);
  EXPECT_GT(metrics.sim_units, 0.0);
}

TEST(DistanceGraphMst, ForestWhenSeedsDisconnected) {
  graph::edge_list list(6);
  list.add_undirected_edge(0, 1, 1);
  list.add_undirected_edge(2, 3, 1);
  const graph::csr_graph g(list);
  const std::vector<vertex_id> seeds{0, 1, 2, 3};
  const dist_graph dgraph(g, {2, partition_scheme::hash, false, 0});
  steiner_state state(g.num_vertices());
  (void)compute_voronoi_cells(dgraph, seeds, state, engine_config{});
  std::vector<cross_edge_map> per_rank;
  (void)find_local_min_edges(dgraph, state, per_rank, engine_config{});
  const communicator comm(2, cost_model{});
  (void)reduce_global_min_edges(comm, per_rank, {});
  runtime::phase_metrics metrics;
  const auto mst = compute_distance_graph_mst(per_rank.front(), seeds, comm,
                                              metrics);
  EXPECT_FALSE(mst.spans_all_seeds);
  EXPECT_EQ(mst.mst_pairs.size(), 2u);  // one bridge per component
}

TEST(Pruning, KeepsExactlyMstPairs) {
  const auto g = make_test_graph(100, 31);
  const auto seeds = pick_seeds(g, 8, 37);
  const dist_graph dgraph(g, {4, partition_scheme::hash, false, 0});
  steiner_state state(g.num_vertices());
  (void)compute_voronoi_cells(dgraph, seeds, state, engine_config{});
  std::vector<cross_edge_map> per_rank;
  (void)find_local_min_edges(dgraph, state, per_rank, engine_config{});
  const communicator comm(4, cost_model{});
  (void)reduce_global_min_edges(comm, per_rank, {});
  runtime::phase_metrics metrics;
  const auto mst =
      compute_distance_graph_mst(per_rank.front(), seeds, comm, metrics);

  const std::size_t before = per_rank.front().size();
  (void)prune_cross_edges(comm, per_rank, mst.mst_pairs);
  for (const auto& map : per_rank) {
    EXPECT_EQ(map.size(), mst.mst_pairs.size());
    for (const auto& pair : mst.mst_pairs) EXPECT_TRUE(map.contains(pair));
  }
  EXPECT_GE(before, mst.mst_pairs.size());
}

}  // namespace

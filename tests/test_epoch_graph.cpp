// Epoch subsystem tests: copy-on-write overlay semantics, lazy/cheap
// materialization, chained fingerprints, compaction, delta composition — and
// the edge-delta warm starts built on top: a repair across a graph mutation
// must be bit-identical to a cold solve on the mutated graph, in both the
// sequential and the threaded engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/warm_start.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::core;
using graph::edge_delta;
using graph::edge_edit;
using graph::epoch_graph;
using graph::epoch_store;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_connected_graph(int n, weight_t w_hi, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x99);
  graph::connect_components(list, w_hi + 1, seed);
  return graph::csr_graph(list);
}

/// Rebuilds the graph an epoch should describe, from scratch through the
/// edge-list path — the reference for materialization equivalence.
graph::csr_graph reference_csr(const epoch_graph& epoch) {
  graph::edge_list list;
  list.set_num_vertices(epoch.num_vertices());
  for (vertex_id u = 0; u < epoch.num_vertices(); ++u) {
    const auto nbrs = epoch.neighbors(u);
    const auto wts = epoch.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) list.add_undirected_edge(u, nbrs[i], wts[i]);
    }
  }
  return graph::csr_graph(list);
}

void expect_same_tree(const steiner_result& a, const steiner_result& b) {
  EXPECT_EQ(a.total_distance, b.total_distance);
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.spans_all_seeds, b.spans_all_seeds);
}

// ---- epoch_graph ------------------------------------------------------------

TEST(EpochGraph, BaseEpochSharesTheCsr) {
  const auto g = make_connected_graph(60, 10, 1);
  const std::uint64_t fp = g.fingerprint();
  const auto base = epoch_graph::make_base(g);
  EXPECT_EQ(base->epoch_id(), 0u);
  EXPECT_EQ(base->fingerprint(), fp);  // continuous with structural keys
  EXPECT_EQ(base->num_vertices(), g.num_vertices());
  EXPECT_EQ(base->num_arcs(), g.num_arcs());
  EXPECT_EQ(base->overlay_rows(), 0u);
  EXPECT_EQ(base->csr()->fingerprint(), fp);
  EXPECT_EQ(base->parent(), nullptr);
}

TEST(EpochGraph, DeriveIsLazyAndCopiesOnlyTouchedRows) {
  const auto base = epoch_graph::make_base(make_connected_graph(80, 10, 2));
  const auto nbrs = base->neighbors(5);
  ASSERT_FALSE(nbrs.empty());
  const vertex_id other = nbrs.front();

  edge_delta delta;
  delta.edits.push_back(edge_edit::reweight(5, other, 999));
  const auto next = base->derive(delta, /*compact_fraction=*/0.25);

  EXPECT_EQ(next->epoch_id(), 1u);
  EXPECT_NE(next->fingerprint(), base->fingerprint());
  EXPECT_FALSE(next->materialized());  // derivation did not build a CSR
  EXPECT_EQ(next->overlay_rows(), 2u);  // exactly the two endpoint rows
  EXPECT_EQ(next->parent(), base);
  ASSERT_EQ(next->delta_from_parent().size(), 1u);
  EXPECT_TRUE(next->delta_from_parent().front().raised());

  // Overlay reads see the edit without materialization; the base is intact.
  EXPECT_EQ(next->edge_weight(5, other), std::optional<weight_t>(999));
  EXPECT_EQ(next->edge_weight(other, 5), std::optional<weight_t>(999));
  EXPECT_NE(base->edge_weight(5, other), std::optional<weight_t>(999));
  EXPECT_EQ(next->num_arcs(), base->num_arcs());
}

TEST(EpochGraph, MaterializationMatchesEdgeListRebuild) {
  const auto base = epoch_graph::make_base(make_connected_graph(100, 20, 3));
  edge_delta delta;
  const auto row7 = base->neighbors(7);
  ASSERT_GE(row7.size(), 2u);
  delta.edits.push_back(edge_edit::reweight(7, row7[0], 123));
  delta.edits.push_back(edge_edit::disable(7, row7[1]));
  // A brand-new edge between two vertices that are not yet adjacent.
  std::optional<std::pair<vertex_id, vertex_id>> fresh;
  for (vertex_id u = 0; u < base->num_vertices() && !fresh; ++u) {
    for (vertex_id v = u + 1; v < base->num_vertices(); ++v) {
      if (!base->edge_weight(u, v)) {
        fresh = {u, v};
        break;
      }
    }
  }
  ASSERT_TRUE(fresh.has_value());
  delta.edits.push_back(edge_edit::enable(fresh->first, fresh->second, 4));

  const auto next = base->derive(delta);
  const auto materialized = next->csr();
  const auto reference = reference_csr(*next);
  // Bit-identical arrays => identical structural fingerprint: the patch-based
  // materialization is indistinguishable from the edge-list path.
  EXPECT_EQ(materialized->offsets(), reference.offsets());
  EXPECT_EQ(materialized->targets(), reference.targets());
  EXPECT_EQ(materialized->arc_weights(), reference.arc_weights());
  EXPECT_EQ(materialized->fingerprint(), reference.fingerprint());
  EXPECT_EQ(next->num_arcs(), materialized->num_arcs());
  EXPECT_TRUE(next->materialized());

  next->release_materialization();
  EXPECT_FALSE(next->materialized());
  EXPECT_EQ(next->csr()->fingerprint(), reference.fingerprint());  // rebuilds
}

TEST(EpochGraph, RejectsInvalidEdits) {
  const auto base = epoch_graph::make_base(make_connected_graph(40, 10, 4));
  const vertex_id u = 3;
  const auto nbrs = base->neighbors(u);
  ASSERT_FALSE(nbrs.empty());
  const vertex_id v = nbrs.front();
  std::optional<vertex_id> non_adjacent;
  for (vertex_id w = 0; w < base->num_vertices(); ++w) {
    if (w != u && !base->edge_weight(u, w)) {
      non_adjacent = w;
      break;
    }
  }
  ASSERT_TRUE(non_adjacent.has_value());

  const auto derive_one = [&](edge_edit edit) {
    edge_delta delta;
    delta.edits.push_back(edit);
    return base->derive(delta);
  };
  EXPECT_THROW((void)derive_one(edge_edit::reweight(u, 100000, 5)),
               std::invalid_argument);  // out of range
  EXPECT_THROW((void)derive_one(edge_edit::reweight(u, u, 5)),
               std::invalid_argument);  // self loop
  EXPECT_THROW((void)derive_one(edge_edit::reweight(u, v, 0)),
               std::invalid_argument);  // weights are >= 1
  EXPECT_THROW((void)derive_one(edge_edit::reweight(u, *non_adjacent, 5)),
               std::invalid_argument);  // absent edge
  EXPECT_THROW((void)derive_one(edge_edit::disable(u, *non_adjacent)),
               std::invalid_argument);
  EXPECT_THROW((void)derive_one(edge_edit::enable(u, v, 5)),
               std::invalid_argument);  // already present
}

// Epoch edits act per undirected pair: a disable drops every parallel arc of
// the pair, and a reweight sets every one of them.
TEST(EpochGraph, EditsActOnEveryParallelArcOfAPair) {
  graph::edge_list list(4);
  list.add_undirected_edge(0, 1, 9);
  list.add_undirected_edge(0, 1, 12);  // heavier parallel arc
  list.add_undirected_edge(1, 2, 4);
  list.add_undirected_edge(0, 3, 15);
  list.add_undirected_edge(0, 3, 16);
  const auto base = epoch_graph::make_base(graph::csr_graph(list));
  ASSERT_EQ(base->edge_weight(0, 1), std::optional<weight_t>(9));

  edge_delta delta;
  delta.edits.push_back(edge_edit::disable(0, 3));
  delta.edits.push_back(edge_edit::reweight(0, 1, 18));
  const auto next = base->derive(delta);
  EXPECT_FALSE(next->edge_weight(0, 3).has_value());
  EXPECT_EQ(next->degree(3), 0u);
  EXPECT_EQ(next->edge_weight(0, 1), std::optional<weight_t>(18));
  EXPECT_EQ(next->edge_weight(1, 0), std::optional<weight_t>(18));
  for (const weight_t w : next->weights(0)) EXPECT_EQ(w, 18u);
  // The materialized CSR agrees with the overlay.
  EXPECT_EQ(next->csr()->degree(3), 0u);
  EXPECT_EQ(next->csr()->edge_weight(0, 1), std::optional<weight_t>(18));
}

TEST(EpochGraph, CompactionRebasesAndPreservesContent) {
  const auto base = epoch_graph::make_base(make_connected_graph(60, 10, 5));
  // Reweight every edge: the overlay touches every row, far past any
  // reasonable compaction fraction.
  edge_delta delta;
  for (vertex_id u = 0; u < base->num_vertices(); ++u) {
    const auto nbrs = base->neighbors(u);
    const auto wts = base->weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) delta.edits.push_back(edge_edit::reweight(u, nbrs[i], wts[i] + 7));
    }
  }
  const auto next = base->derive(delta, /*compact_fraction=*/0.1);
  EXPECT_TRUE(next->compacted());
  EXPECT_EQ(next->overlay_rows(), 0u);  // rebased: fresh CSR, empty overlay
  EXPECT_EQ(next->parent(), base);      // provenance survives rebasing
  const auto reference = reference_csr(*next);
  EXPECT_EQ(next->csr()->fingerprint(), reference.fingerprint());

  // compact_fraction 0 disables compaction outright.
  const auto lazy = base->derive(delta, /*compact_fraction=*/0.0);
  EXPECT_FALSE(lazy->compacted());
  EXPECT_GT(lazy->overlay_rows(), 0u);
  EXPECT_EQ(lazy->csr()->fingerprint(), reference.fingerprint());
}

TEST(EpochGraph, FingerprintChainsAreReproducible) {
  const auto g = make_connected_graph(50, 10, 6);
  const auto a0 = epoch_graph::make_base(graph::csr_graph(g));
  const auto b0 = epoch_graph::make_base(graph::csr_graph(g));
  const auto nbrs = a0->neighbors(2);
  ASSERT_FALSE(nbrs.empty());
  edge_delta delta;
  delta.edits.push_back(edge_edit::reweight(2, nbrs.front(), 55));
  const auto a1 = a0->derive(delta);
  const auto b1 = b0->derive(delta);
  EXPECT_EQ(a1->fingerprint(), b1->fingerprint());  // same history, same key
  // An empty delta still advances the epoch and the fingerprint: epochs are
  // provenance identities, not content hashes.
  const auto a2 = a1->derive(edge_delta{});
  EXPECT_EQ(a2->epoch_id(), 2u);
  EXPECT_NE(a2->fingerprint(), a1->fingerprint());
  EXPECT_EQ(a2->csr()->fingerprint(), a1->csr()->fingerprint());
}

// ---- epoch_store ------------------------------------------------------------

TEST(EpochStore, AdvanceRetiresBeyondTheLiveWindow) {
  epoch_store::config cfg;
  cfg.max_live_epochs = 2;
  epoch_store store(make_connected_graph(50, 10, 7), cfg);
  EXPECT_EQ(store.current()->epoch_id(), 0u);
  EXPECT_EQ(store.live_count(), 1u);

  const auto nbrs = store.current()->neighbors(1);
  ASSERT_FALSE(nbrs.empty());
  edge_delta delta;
  delta.edits.push_back(edge_edit::reweight(1, nbrs.front(), 77));

  (void)store.advance(delta);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.first_live_epoch(), 0u);

  (void)store.advance(edge_delta{});
  EXPECT_EQ(store.current()->epoch_id(), 2u);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.first_live_epoch(), 1u);
  EXPECT_EQ(store.find(0), nullptr);  // retired
  ASSERT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(1)->epoch_id(), 1u);
  EXPECT_EQ(store.find(99), nullptr);
}

TEST(EpochStore, DeltaBetweenFoldsAndCancels) {
  epoch_store store(make_connected_graph(50, 10, 8));
  const auto base = store.current();
  const auto nbrs = base->neighbors(4);
  ASSERT_GE(nbrs.size(), 2u);
  const vertex_id a = nbrs[0];
  vertex_id b = graph::k_no_vertex;
  for (const vertex_id cand : nbrs) {
    if (cand != a) {
      b = cand;
      break;
    }
  }
  ASSERT_NE(b, graph::k_no_vertex);
  const weight_t original = *base->edge_weight(4, a);

  edge_delta first;
  first.edits.push_back(edge_edit::reweight(4, a, original + 5));
  first.edits.push_back(edge_edit::disable(4, b));
  (void)store.advance(first);
  edge_delta second;
  second.edits.push_back(edge_edit::reweight(4, a, original));  // undo
  (void)store.advance(second);

  const auto composed = store.delta_between(0, 2);
  ASSERT_TRUE(composed.has_value());
  // The reweight round-trip folded away; only the disable survives.
  ASSERT_EQ(composed->size(), 1u);
  EXPECT_EQ(composed->front().u, std::min<vertex_id>(4, b));
  EXPECT_EQ(composed->front().v, std::max<vertex_id>(4, b));
  EXPECT_TRUE(composed->front().had_edge);
  EXPECT_FALSE(composed->front().has_edge);

  EXPECT_TRUE(store.delta_between(1, 1).has_value());
  EXPECT_TRUE(store.delta_between(1, 1)->empty());
  EXPECT_FALSE(store.delta_between(2, 1).has_value());  // backwards
  EXPECT_FALSE(store.delta_between(5, 6).has_value());  // unknown
}

// ---- edge-delta warm starts -------------------------------------------------

solver_config quiet_solver() {
  solver_config config;
  config.num_ranks = 8;
  config.validate = true;
  config.allow_disconnected_seeds = true;
  return config;
}

/// Applies `delta` to `epoch`, then checks the edge-warm repair from a donor
/// on `epoch` against a cold solve on the derived epoch.
void check_edge_warm(const epoch_graph::ptr& epoch, const edge_delta& delta,
                     const std::vector<vertex_id>& seeds,
                     const solver_config& config) {
  solve_artifacts donor;
  (void)solve_steiner_tree_assisted(*epoch->csr(), seeds, {}, config, &donor);
  const auto next = epoch->derive(delta);
  warm_start_stats stats;
  const auto warm = solve_steiner_tree_edge_warm(
      *next->csr(), donor, epoch->csr()->fingerprint(),
      next->delta_from_parent(), config, nullptr, &stats);
  const auto cold = solve_steiner_tree(*next->csr(), seeds, config);
  expect_same_tree(warm, cold);
  EXPECT_EQ(stats.edge_edits, next->delta_from_parent().size());
}

TEST(EdgeWarmStart, ReweightRaiseEqualsCold) {
  const auto base = epoch_graph::make_base(make_connected_graph(150, 20, 20));
  const std::vector<vertex_id> seeds{3, 40, 77, 120};
  // Raise a tree-ish edge near a seed: guaranteed to damage some witnesses.
  const auto nbrs = base->neighbors(3);
  ASSERT_FALSE(nbrs.empty());
  edge_delta delta;
  delta.edits.push_back(edge_edit::reweight(3, nbrs.front(), 500));
  check_edge_warm(base, delta, seeds, quiet_solver());
}

TEST(EdgeWarmStart, ReweightLowerEqualsCold) {
  const auto base = epoch_graph::make_base(make_connected_graph(150, 20, 21));
  const std::vector<vertex_id> seeds{10, 60, 90, 140};
  edge_delta delta;
  // A drastic shortcut between two far-apart seeds' neighbourhoods.
  const auto nbrs = base->neighbors(60);
  ASSERT_FALSE(nbrs.empty());
  delta.edits.push_back(edge_edit::reweight(60, nbrs.front(), 1));
  check_edge_warm(base, delta, seeds, quiet_solver());
}

TEST(EdgeWarmStart, DisableAndEnableEqualCold) {
  const auto base = epoch_graph::make_base(make_connected_graph(150, 20, 22));
  const std::vector<vertex_id> seeds{5, 50, 100};
  const auto nbrs = base->neighbors(50);
  ASSERT_GE(nbrs.size(), 1u);
  edge_delta delta;
  delta.edits.push_back(edge_edit::disable(50, nbrs.front()));
  std::optional<std::pair<vertex_id, vertex_id>> fresh;
  for (vertex_id v = 0; v < base->num_vertices() && !fresh; ++v) {
    if (v != 5 && !base->edge_weight(5, v)) fresh = {vertex_id{5}, v};
  }
  ASSERT_TRUE(fresh.has_value());
  delta.edits.push_back(edge_edit::enable(fresh->first, fresh->second, 2));
  check_edge_warm(base, delta, seeds, quiet_solver());
}

TEST(EdgeWarmStart, MismatchedDonorFingerprintThrows) {
  const auto base = epoch_graph::make_base(make_connected_graph(80, 10, 24));
  const solver_config config = quiet_solver();
  solve_artifacts donor;
  (void)solve_steiner_tree_assisted(
      *base->csr(), std::vector<vertex_id>{1, 40}, {}, config, &donor);
  const auto nbrs = base->neighbors(1);
  ASSERT_FALSE(nbrs.empty());
  edge_delta delta;
  delta.edits.push_back(edge_edit::reweight(1, nbrs.front(), 99));
  const auto next = base->derive(delta);
  EXPECT_THROW(
      (void)solve_steiner_tree_edge_warm(
          *next->csr(), donor, /*donor_graph_fingerprint=*/0xdead,
          next->delta_from_parent(), config),
      std::invalid_argument);
}

/// The main randomized guarantee: chains of reweight/disable(/enable) edits,
/// with warm repairs feeding the next epoch's donor, stay bit-identical to
/// cold solves at every step — sequential and threaded engines.
void randomized_edge_chain(runtime::execution_mode mode, std::uint64_t rng_seed) {
  solver_config config = quiet_solver();
  config.mode = mode;
  if (mode == runtime::execution_mode::parallel_threads) config.num_threads = 4;

  util::rng gen(rng_seed);
  epoch_store store(make_connected_graph(220, 25, rng_seed));
  const std::vector<vertex_id> seeds{11, 60, 140, 200};

  solve_artifacts artifacts;
  (void)solve_steiner_tree_assisted(
      *store.current()->csr(), seeds, {}, config, &artifacts);
  std::uint64_t donor_epoch = store.current()->epoch_id();
  std::uint64_t donor_fp = store.current()->csr()->fingerprint();

  for (int step = 0; step < 8; ++step) {
    // 1-3 random edge edits against the current epoch.
    const auto current = store.current();
    edge_delta delta;
    std::set<std::pair<vertex_id, vertex_id>> touched;
    const int edits = 1 + static_cast<int>(gen.uniform(0, 2));
    for (int e = 0; e < edits; ++e) {
      const vertex_id u = gen.uniform(0, current->num_vertices() - 1);
      const auto nbrs = current->neighbors(u);
      if (nbrs.empty()) continue;
      const vertex_id v =
          nbrs[static_cast<std::size_t>(gen.uniform(0, nbrs.size() - 1))];
      if (!touched.insert({std::min(u, v), std::max(u, v)}).second) continue;
      switch (gen.uniform(0, 3)) {
        case 0: delta.edits.push_back(edge_edit::disable(u, v)); break;
        case 1:
          delta.edits.push_back(
              edge_edit::reweight(u, v, 1 + gen.uniform(0, 4)));
          break;
        default:
          delta.edits.push_back(
              edge_edit::reweight(u, v, 50 + gen.uniform(0, 200)));
          break;
      }
    }
    const auto next = store.advance(delta);

    const auto composed = store.delta_between(donor_epoch, next->epoch_id());
    ASSERT_TRUE(composed.has_value());
    solve_artifacts next_artifacts;
    const auto warm = solve_steiner_tree_edge_warm(
        *next->csr(), artifacts, donor_fp, *composed, config,
        &next_artifacts);
    const auto cold = solve_steiner_tree(*next->csr(), seeds, config);
    expect_same_tree(warm, cold);

    artifacts = std::move(next_artifacts);
    donor_epoch = next->epoch_id();
    donor_fp = next->csr()->fingerprint();
  }
}

TEST(EdgeWarmStart, RandomizedChainEqualsColdSequential) {
  randomized_edge_chain(runtime::execution_mode::async, 0x5eed1);
}

TEST(EdgeWarmStart, RandomizedChainEqualsColdThreaded) {
  randomized_edge_chain(runtime::execution_mode::parallel_threads, 0x5eed2);
}

/// Donors may also skip epochs: repair directly from an old epoch across a
/// composed multi-epoch delta.
TEST(EdgeWarmStart, MultiEpochComposedDeltaEqualsCold) {
  const solver_config config = quiet_solver();
  epoch_store store(make_connected_graph(180, 20, 26));
  const std::vector<vertex_id> seeds{7, 33, 71, 150};
  solve_artifacts donor;
  (void)solve_steiner_tree_assisted(
      *store.current()->csr(), seeds, {}, config, &donor);
  const std::uint64_t donor_fp = store.current()->csr()->fingerprint();

  for (int hop = 0; hop < 3; ++hop) {
    const auto current = store.current();
    const vertex_id u = static_cast<vertex_id>(10 + hop * 37);
    const auto nbrs = current->neighbors(u);
    ASSERT_FALSE(nbrs.empty());
    edge_delta delta;
    delta.edits.push_back(
        edge_edit::reweight(u, nbrs.front(), hop % 2 == 0 ? 400 : 1));
    (void)store.advance(delta);
  }
  const auto target = store.current();
  const auto composed = store.delta_between(0, target->epoch_id());
  ASSERT_TRUE(composed.has_value());
  const auto warm = solve_steiner_tree_edge_warm(
      *target->csr(), donor, donor_fp, *composed, config);
  const auto cold = solve_steiner_tree(*target->csr(), seeds, config);
  expect_same_tree(warm, cold);
}

}  // namespace

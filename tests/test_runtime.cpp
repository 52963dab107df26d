// Unit tests for the distributed runtime simulation: partitioning,
// collectives, mailboxes, the visitor engine and the distributed graph view.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

#include "core/voronoi.hpp"
#include "graph/generators.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/partition.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/visitor_engine.hpp"
#include "util/hash.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::runtime;

TEST(Partitioner, BlockOwnersAreContiguous) {
  const partitioner parts(100, 4, partition_scheme::block);
  EXPECT_EQ(parts.owner(0), 0);
  EXPECT_EQ(parts.owner(24), 0);
  EXPECT_EQ(parts.owner(25), 1);
  EXPECT_EQ(parts.owner(99), 3);
}

TEST(Partitioner, HashCoversAllRanksRoughlyEvenly) {
  const int ranks = 8;
  const partitioner parts(10000, ranks, partition_scheme::hash);
  std::vector<int> counts(ranks, 0);
  for (graph::vertex_id v = 0; v < 10000; ++v) {
    const int r = parts.owner(v);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, ranks);
    ++counts[r];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 10000 / ranks / 2);
    EXPECT_LT(c, 10000 / ranks * 2);
  }
}

TEST(Partitioner, SingleRankOwnsEverything) {
  const partitioner parts(50, 1, partition_scheme::hash);
  for (graph::vertex_id v = 0; v < 50; ++v) EXPECT_EQ(parts.owner(v), 0);
}

TEST(Partitioner, RejectsZeroRanks) {
  EXPECT_THROW(partitioner(10, 0), std::invalid_argument);
}

TEST(Communicator, AllreduceMin) {
  const communicator comm(3, cost_model{});
  std::vector<std::vector<int>> data{{5, 9, 2}, {7, 1, 4}, {6, 8, 3}};
  phase_metrics m;
  comm.allreduce(data, [](int a, int b) { return std::min(a, b); }, m);
  for (const auto& rank : data) {
    EXPECT_EQ(rank, (std::vector<int>{5, 1, 2}));
  }
  EXPECT_EQ(m.collective_calls, 1u);
  EXPECT_GT(m.collective_bytes, 0u);
  EXPECT_GT(m.sim_units, 0.0);
}

TEST(Communicator, AllreduceSum) {
  const communicator comm(4, cost_model{});
  std::vector<std::vector<std::uint64_t>> data(4, std::vector<std::uint64_t>{1, 2});
  phase_metrics m;
  comm.allreduce(data, [](std::uint64_t a, std::uint64_t b) { return a + b; }, m);
  EXPECT_EQ(data[2], (std::vector<std::uint64_t>{4, 8}));
}

TEST(Communicator, ChunkedAllreduceMatchesMonolithic) {
  const communicator comm(3, cost_model{});
  std::vector<std::vector<int>> mono{{9, 4, 7, 2, 8}, {3, 6, 1, 5, 9}, {8, 8, 8, 8, 0}};
  auto chunked = mono;
  phase_metrics m_mono, m_chunked;
  comm.allreduce(mono, [](int a, int b) { return std::min(a, b); }, m_mono);
  comm.allreduce(chunked, [](int a, int b) { return std::min(a, b); }, m_chunked, 2);
  EXPECT_EQ(mono, chunked);
  // Chunking trades more collective calls for smaller buffers.
  EXPECT_EQ(m_mono.collective_calls, 1u);
  EXPECT_EQ(m_chunked.collective_calls, 3u);
  EXPECT_EQ(m_mono.collective_bytes, m_chunked.collective_bytes);
}

TEST(Communicator, PeakBufferTracksLargestCollective) {
  const communicator comm(2, cost_model{});
  comm.reset_peak_buffer();
  std::vector<std::vector<int>> big(2, std::vector<int>(100, 1));
  std::vector<std::vector<int>> small(2, std::vector<int>(10, 1));
  phase_metrics m;
  comm.allreduce(big, [](int a, int b) { return a + b; }, m);
  comm.allreduce(small, [](int a, int b) { return a + b; }, m);
  EXPECT_EQ(comm.peak_buffer_bytes(), 100 * sizeof(int));
  // Chunked reduces the peak.
  comm.reset_peak_buffer();
  comm.allreduce(big, [](int a, int b) { return a + b; }, m, 10);
  EXPECT_EQ(comm.peak_buffer_bytes(), 10 * sizeof(int));
}

TEST(Communicator, AllgatherConcatenatesInRankOrder) {
  const communicator comm(3, cost_model{});
  const std::vector<std::vector<int>> data{{1, 2}, {}, {3}};
  phase_metrics m;
  EXPECT_EQ(comm.allgather(data, m), (std::vector<int>{1, 2, 3}));
}

TEST(Communicator, AllreduceMapMergesWithMin) {
  const communicator comm(2, cost_model{});
  using map_t = std::unordered_map<std::pair<int, int>, int, util::pair_hash>;
  std::vector<map_t> maps(2);
  maps[0][{0, 1}] = 5;
  maps[0][{0, 2}] = 7;
  maps[1][{0, 1}] = 3;
  maps[1][{1, 2}] = 9;
  phase_metrics m;
  comm.allreduce_map(maps, [](int a, int b) { return std::min(a, b); }, m);
  for (const auto& map : maps) {
    ASSERT_EQ(map.size(), 3u);
    EXPECT_EQ(map.at({0, 1}), 3);
    EXPECT_EQ(map.at({0, 2}), 7);
    EXPECT_EQ(map.at({1, 2}), 9);
  }
}

TEST(Communicator, AllreduceMapAccountingMatchesDensePath) {
  // Regression: the map merge used to charge the *sum* of per-rank entry
  // counts in one monolithic call and never recorded a per-chunk buffer. It
  // must mirror the dense allreduce: the payload is the merged (reduced) map,
  // charged per chunk, with note_buffer_bytes per chunk.
  using map_t = std::unordered_map<std::pair<int, int>, int, util::pair_hash>;
  constexpr std::uint64_t entry_bytes = sizeof(std::pair<int, int>) + sizeof(int);
  const communicator comm(3, cost_model{});

  const auto build_maps = [] {
    std::vector<map_t> maps(3);
    // 5 distinct keys; {0,1} duplicated across ranks resolves by min.
    maps[0][{0, 1}] = 5;
    maps[0][{0, 2}] = 7;
    maps[1][{0, 1}] = 3;
    maps[1][{1, 2}] = 9;
    maps[2][{1, 3}] = 4;
    maps[2][{2, 3}] = 6;
    return maps;
  };

  auto mono = build_maps();
  phase_metrics m_mono;
  comm.reset_peak_buffer();
  comm.allreduce_map(mono, [](int a, int b) { return std::min(a, b); }, m_mono);
  EXPECT_EQ(m_mono.collective_calls, 1u);
  EXPECT_EQ(m_mono.collective_bytes, 5 * entry_bytes);  // merged size, not 6
  EXPECT_EQ(comm.peak_buffer_bytes(), 5 * entry_bytes);

  auto chunked = build_maps();
  phase_metrics m_chunked;
  comm.reset_peak_buffer();
  comm.allreduce_map(chunked, [](int a, int b) { return std::min(a, b); },
                     m_chunked, 2);
  EXPECT_EQ(m_chunked.collective_calls, 3u);  // ceil(5 / 2)
  EXPECT_EQ(m_chunked.collective_bytes, m_mono.collective_bytes);
  EXPECT_EQ(comm.peak_buffer_bytes(), 2 * entry_bytes);  // chunked peak shrinks
  EXPECT_GT(m_chunked.sim_units, m_mono.sim_units);  // extra alpha charges
  EXPECT_EQ(mono, chunked);  // accounting change never alters the reduction

  for (const auto& map : mono) {
    ASSERT_EQ(map.size(), 5u);
    EXPECT_EQ(map.at({0, 1}), 3);
  }
}

TEST(Communicator, AllreduceMapPoolFanOutChargesFullMapPeak) {
  // Regression: the parallel replication fan-out copies whole-map replicas
  // concurrently, so the §V-F per-chunk buffer bound recorded by the chunk
  // loop does not describe that path's real peak. The pool branch must
  // charge the full merged map as the collective buffer; the sequential
  // path keeps the chunk bound.
  using map_t = std::unordered_map<std::pair<int, int>, int, util::pair_hash>;
  constexpr std::size_t items = 2048;  // >= the 1024 fan-out threshold
  constexpr std::size_t chunk = 256;
  constexpr std::uint64_t entry_bytes =
      sizeof(std::pair<int, int>) + sizeof(int);
  const auto build_maps = [] {
    std::vector<map_t> maps(2);
    for (int i = 0; i < static_cast<int>(items); ++i) {
      maps[static_cast<std::size_t>(i) % 2][{i, i + 1}] = i;  // disjoint keys
    }
    return maps;
  };
  const auto min_val = [](int a, int b) { return std::min(a, b); };
  phase_metrics m;

  const communicator sequential(2, cost_model{});
  auto seq_maps = build_maps();
  sequential.reset_peak_buffer();
  sequential.allreduce_map(seq_maps, min_val, m, chunk);
  EXPECT_EQ(sequential.peak_buffer_bytes(), chunk * entry_bytes);

  parallel::worker_pool pool(2);
  const communicator pooled(2, cost_model{}, &pool);
  auto pool_maps = build_maps();
  pooled.reset_peak_buffer();
  pooled.allreduce_map(pool_maps, min_val, m, chunk);
  EXPECT_EQ(pooled.peak_buffer_bytes(), items * entry_bytes);
  EXPECT_EQ(pool_maps, seq_maps);  // accounting only; same reduction
}

struct test_visitor {
  graph::vertex_id v = 0;
  std::uint64_t prio = 0;
  [[nodiscard]] graph::vertex_id target() const { return v; }
  [[nodiscard]] std::uint64_t priority() const { return prio; }
};

TEST(Mailbox, FifoPreservesArrivalOrder) {
  mailbox<test_visitor> box(queue_policy::fifo);
  box.push({1, 9});
  box.push({2, 1});
  box.push({3, 5});
  EXPECT_EQ(box.pop().v, 1u);
  EXPECT_EQ(box.pop().v, 2u);
  EXPECT_EQ(box.pop().v, 3u);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, PriorityPopsLowestFirst) {
  mailbox<test_visitor> box(queue_policy::priority);
  box.push({1, 9});
  box.push({2, 1});
  box.push({3, 5});
  EXPECT_EQ(box.pop().v, 2u);
  EXPECT_EQ(box.pop().v, 3u);
  EXPECT_EQ(box.pop().v, 1u);
}

TEST(Mailbox, PriorityTiesAreFifoStable) {
  mailbox<test_visitor> box(queue_policy::priority);
  box.push({10, 4});
  box.push({11, 4});
  box.push({12, 4});
  EXPECT_EQ(box.pop().v, 10u);
  EXPECT_EQ(box.pop().v, 11u);
  EXPECT_EQ(box.pop().v, 12u);
}

TEST(Mailbox, SizeAndClear) {
  mailbox<test_visitor> box(queue_policy::priority);
  box.push({1, 1});
  box.push({2, 2});
  EXPECT_EQ(box.size(), 2u);
  box.clear();
  EXPECT_TRUE(box.empty());
}

// ---- Keyed priority boxes: the Voronoi visitor is the keyed type (one
// queued label per vertex, relays never merge).

using core::voronoi_visitor;
using vkind = voronoi_visitor::kind_t;
using keyed_box = mailbox<voronoi_visitor>;

static_assert(keyed_visitor<voronoi_visitor>);
static_assert(!keyed_visitor<test_visitor>);

voronoi_visitor relay(graph::vertex_id vj, graph::weight_t r) {
  return voronoi_visitor{vj, 0, 0, r, vkind::relay};
}

TEST(Mailbox, KeyedPushKeepsLexicographicMinimum) {
  auto index = keyed_box::make_index(queue_policy::priority, 8);
  ASSERT_EQ(index.size(), 8u);
  keyed_box box(queue_policy::priority, index);

  // A strictly smaller r replaces the queued label; a larger one is dropped.
  EXPECT_TRUE(box.push({3, 1, 5, 10}));
  EXPECT_FALSE(box.push({3, 2, 9, 7}));
  EXPECT_FALSE(box.push({3, 0, 0, 8}));
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.pop(), (voronoi_visitor{3, 2, 9, 7}));

  // Equal r: the smaller (t, vp) wins; an equal label is dropped.
  EXPECT_TRUE(box.push({4, 6, 2, 7}));
  EXPECT_FALSE(box.push({4, 5, 2, 7}));  // same t, smaller vp
  EXPECT_FALSE(box.push({4, 1, 3, 7}));  // larger t
  EXPECT_FALSE(box.push({4, 5, 2, 7}));  // equal label
  EXPECT_FALSE(box.push({4, 0, 1, 7}));  // smaller t
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.pop(), (voronoi_visitor{4, 0, 1, 7}));
  EXPECT_TRUE(box.empty());
  for (const std::uint32_t slot : index) EXPECT_EQ(slot, keyed_box::k_no_slot);
}

TEST(Mailbox, ReplacedEntryPopsInItsNewArrivalOrder) {
  auto index = keyed_box::make_index(queue_policy::priority, 8);
  keyed_box box(queue_policy::priority, index);
  EXPECT_TRUE(box.push({1, 0, 9, 5}));
  EXPECT_TRUE(box.push({2, 0, 0, 5}));
  EXPECT_TRUE(box.push({3, 0, 0, 5}));
  EXPECT_TRUE(box.push({4, 0, 0, 9}));
  EXPECT_TRUE(box.push({5, 0, 0, 6}));
  // Same priority, better label: vertex 1 now queues behind 2 and 3.
  EXPECT_FALSE(box.push({1, 0, 1, 5}));
  // Lower priority: vertex 4 moves ahead of the r = 9 tail, but behind the
  // r = 6 label that arrived before it.
  EXPECT_FALSE(box.push({4, 0, 0, 6}));
  EXPECT_EQ(box.pop().vj, 2u);
  EXPECT_EQ(box.pop().vj, 3u);
  EXPECT_EQ(box.pop(), (voronoi_visitor{1, 0, 1, 5}));
  EXPECT_EQ(box.pop().vj, 5u);
  EXPECT_EQ(box.pop(), (voronoi_visitor{4, 0, 0, 6}));
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, UnkeyedVisitorsNeverMerge) {
  auto index = keyed_box::make_index(queue_policy::priority, 8);
  keyed_box box(queue_policy::priority, index);
  EXPECT_TRUE(box.push(relay(2, 4)));
  EXPECT_TRUE(box.push(relay(2, 3)));
  EXPECT_TRUE(box.push(relay(2, 4)));
  // A normal label for the relays' vertex gets its own entry, and merges
  // only with normal labels.
  EXPECT_TRUE(box.push({2, 0, 0, 4}));
  EXPECT_FALSE(box.push({2, 0, 0, 3}));
  EXPECT_EQ(box.size(), 4u);
  EXPECT_EQ(box.pop(), relay(2, 3));
  EXPECT_EQ(box.pop(), (voronoi_visitor{2, 0, 0, 3}));
  EXPECT_EQ(box.pop(), relay(2, 4));
  EXPECT_EQ(box.pop(), relay(2, 4));
  EXPECT_TRUE(box.empty());

  // A type without the hooks never merges, even on equal targets.
  mailbox<test_visitor> plain(queue_policy::priority);
  EXPECT_TRUE(plain.push({1, 2}));
  EXPECT_TRUE(plain.push({1, 1}));
  EXPECT_EQ(plain.size(), 2u);
  EXPECT_EQ(keyed_box::index_bytes(queue_policy::priority, 8), 32u);
  EXPECT_EQ(mailbox<test_visitor>::index_bytes(queue_policy::priority, 8), 0u);
}

TEST(Mailbox, FifoNeverMerges) {
  EXPECT_TRUE(keyed_box::make_index(queue_policy::fifo, 8).empty());
  EXPECT_EQ(keyed_box::index_bytes(queue_policy::fifo, 8), 0u);
  // Even handed a table, a FIFO box keeps every push in arrival order.
  std::vector<std::uint32_t> index(8, keyed_box::k_no_slot);
  keyed_box box(queue_policy::fifo, index);
  EXPECT_TRUE(box.push({3, 0, 0, 9}));
  EXPECT_TRUE(box.push({3, 0, 0, 1}));
  EXPECT_TRUE(box.push({3, 0, 0, 9}));
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.pop().r, 9u);
  EXPECT_EQ(box.pop().r, 1u);
  EXPECT_EQ(box.pop().r, 9u);
  for (const std::uint32_t slot : index) EXPECT_EQ(slot, keyed_box::k_no_slot);
}

TEST(Mailbox, KeyedBoxMatchesReferenceAndStaysBounded) {
  // Random pushes and pops against a linear-scan model of the keyed queue:
  // at most one live label per key, unkeyed relays all kept, pops in
  // (priority, arrival) order.
  constexpr graph::vertex_id k_keys = 40;
  auto index = keyed_box::make_index(queue_policy::priority, k_keys);
  keyed_box box(queue_policy::priority, index);
  struct entry {
    std::uint64_t sequence;
    voronoi_visitor v;
  };
  std::vector<entry> model;
  std::uint64_t sequence = 0;
  std::uint64_t state = 12345;
  const auto next = [&](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  for (int step = 0; step < 20000; ++step) {
    if (next(3) != 0 || model.empty()) {
      const graph::vertex_id vj = next(k_keys);
      const graph::weight_t r = next(30);
      const voronoi_visitor v = next(10) == 0
                                    ? relay(vj, r)
                                    : voronoi_visitor{vj, next(4), next(3), r};
      bool grew = true;
      if (v.kind == vkind::normal) {
        const auto it = std::find_if(model.begin(), model.end(), [&](const entry& e) {
          return e.v.kind == vkind::normal && e.v.vj == vj;
        });
        if (it != model.end()) {
          grew = false;
          if (v.supersedes(it->v)) *it = {sequence++, v};
        }
      }
      if (grew) model.push_back({sequence++, v});
      ASSERT_EQ(box.push(v), grew) << "step " << step;
    } else {
      const auto it = std::min_element(
          model.begin(), model.end(), [](const entry& a, const entry& b) {
            return std::tuple{a.v.r, a.sequence} < std::tuple{b.v.r, b.sequence};
          });
      ASSERT_EQ(box.pop(), it->v) << "step " << step;
      model.erase(it);
    }
    const auto relays_queued = static_cast<std::uint64_t>(
        std::count_if(model.begin(), model.end(),
                      [](const entry& e) { return e.v.kind == vkind::relay; }));
    ASSERT_EQ(box.size(), model.size());
    ASSERT_LE(box.size(), k_keys + relays_queued);
  }
  box.clear();
  EXPECT_TRUE(box.empty());
  for (const std::uint32_t slot : index) EXPECT_EQ(slot, keyed_box::k_no_slot);
}

// A toy engine workload: propagate min label along a path graph.
struct label_visitor {
  graph::vertex_id v = 0;
  std::uint64_t label = 0;
  [[nodiscard]] graph::vertex_id target() const { return v; }
  [[nodiscard]] std::uint64_t priority() const { return label; }
};

class label_handler {
 public:
  label_handler(const graph::csr_graph& g, std::vector<std::uint64_t>& labels)
      : graph_(&g), labels_(&labels) {}

  bool pre_visit(const label_visitor& v, int) {
    if (v.label >= (*labels_)[v.v]) return false;
    (*labels_)[v.v] = v.label;
    return true;
  }

  template <typename Emitter>
  bool visit(const label_visitor& v, int, Emitter& out) {
    if (v.label != (*labels_)[v.v]) return false;
    for (const graph::vertex_id u : graph_->neighbors(v.v)) {
      out.to_vertex(label_visitor{u, v.label + 1});
    }
    return true;
  }

 private:
  const graph::csr_graph* graph_;
  std::vector<std::uint64_t>* labels_;
};

class EngineModes
    : public ::testing::TestWithParam<std::tuple<queue_policy, execution_mode, int>> {};

TEST_P(EngineModes, PropagatesBfsDepthOnPath) {
  const auto [policy, mode, ranks] = GetParam();
  const graph::csr_graph g(graph::generate_path(32));
  const partitioner parts(g.num_vertices(), ranks, partition_scheme::hash);
  std::vector<std::uint64_t> labels(g.num_vertices(), ~std::uint64_t{0});
  label_handler handler(g, labels);
  engine_config config{policy, mode, 4, cost_model{}};
  const auto metrics = run_visitors<label_visitor>(parts, handler,
                                                   {{0, 0}}, config);
  for (graph::vertex_id v = 0; v < 32; ++v) EXPECT_EQ(labels[v], v);
  EXPECT_GT(metrics.visitors_processed, 0u);
  EXPECT_GT(metrics.rounds, 0u);
  if (ranks > 1) {
    EXPECT_GT(metrics.messages_remote, 0u);
  }
  EXPECT_GT(metrics.sim_units, 0.0);
  EXPECT_GT(metrics.queue_peak_items, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, EngineModes,
    ::testing::Combine(::testing::Values(queue_policy::fifo,
                                         queue_policy::priority),
                       ::testing::Values(execution_mode::async,
                                         execution_mode::bsp),
                       ::testing::Values(1, 3, 8)));

TEST(Engine, NoVisitorsTerminatesImmediately) {
  const graph::csr_graph g(graph::generate_path(4));
  const partitioner parts(4, 2, partition_scheme::hash);
  std::vector<std::uint64_t> labels(4, ~std::uint64_t{0});
  label_handler handler(g, labels);
  const auto metrics =
      run_visitors<label_visitor>(parts, handler, {}, engine_config{});
  EXPECT_EQ(metrics.rounds, 0u);
  EXPECT_EQ(metrics.visitors_processed, 0u);
}

TEST(Engine, PreVisitRejectionCounted) {
  const graph::csr_graph g(graph::generate_path(4));
  const partitioner parts(4, 1, partition_scheme::hash);
  std::vector<std::uint64_t> labels(4, 0);  // already optimal: all rejected
  label_handler handler(g, labels);
  const auto metrics = run_visitors<label_visitor>(parts, handler,
                                                   {{0, 5}}, engine_config{});
  EXPECT_EQ(metrics.visitors_processed, 0u);
  EXPECT_EQ(metrics.previsit_rejections, 1u);
}

TEST(DistGraph, LocalVerticesPartitionTheGraph) {
  const graph::csr_graph g(graph::generate_grid(10, 10));
  const dist_graph dgraph(g, {4, partition_scheme::hash, false, 0});
  std::set<graph::vertex_id> seen;
  for (int r = 0; r < 4; ++r) {
    for (const auto v : dgraph.local_vertices(r)) {
      EXPECT_EQ(dgraph.owner(v), r);
      EXPECT_TRUE(seen.insert(v).second) << "vertex owned twice";
    }
  }
  EXPECT_EQ(seen.size(), g.num_vertices());
}

TEST(DistGraph, DelegatesSelectedByDegreeThreshold) {
  const graph::csr_graph g(graph::generate_star(100));  // hub degree 99
  const dist_graph dgraph(g, {4, partition_scheme::hash, true, 50});
  EXPECT_TRUE(dgraph.is_delegate(0));
  EXPECT_FALSE(dgraph.is_delegate(1));
  EXPECT_EQ(dgraph.delegate_count(), 1u);
}

TEST(DistGraph, DelegatesDisabled) {
  const graph::csr_graph g(graph::generate_star(100));
  const dist_graph dgraph(g, {4, partition_scheme::hash, false, 50});
  EXPECT_FALSE(dgraph.is_delegate(0));
  EXPECT_EQ(dgraph.delegate_count(), 0u);
}

TEST(DistGraph, SlicesCoverEveryArcExactlyOnce) {
  const graph::csr_graph g(graph::generate_star(37));
  const int ranks = 4;
  const dist_graph dgraph(g, {ranks, partition_scheme::hash, true, 10});
  std::multiset<graph::vertex_id> from_slices;
  for (int r = 0; r < ranks; ++r) {
    dgraph.for_each_arc_in_slice(0, r, [&](graph::vertex_id t, graph::weight_t) {
      from_slices.insert(t);
    });
  }
  std::multiset<graph::vertex_id> all;
  dgraph.for_each_arc(0, [&](graph::vertex_id t, graph::weight_t) {
    all.insert(t);
  });
  EXPECT_EQ(from_slices, all);
  EXPECT_EQ(dgraph.slice_rank_count(0), ranks);
  EXPECT_EQ(dgraph.slice_rank_count(1), 1);  // leaf: degree 1
}

}  // namespace

// Tests for the threaded parallel runtime (src/runtime/parallel/): SPSC
// channel stress, superstep barrier aggregation, worker pool reuse, the
// thread engine itself, and the headline guarantee — N-thread solves are
// bit-identical to sequential-engine solves over random graphs and seed
// sets, and thread-engine metrics are invariant in the worker count. Also
// the frontier window on both in-process engines: bounded re-settlement at
// a large batch and the simulated charge for its per-round min-fold.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/voronoi.hpp"
#include "core/warm_start.hpp"
#include "graph/dijkstra.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/generators.hpp"
#include "io/dataset.hpp"
#include "runtime/net/dist_solver.hpp"
#include "runtime/parallel/spsc_channel.hpp"
#include "runtime/parallel/superstep_barrier.hpp"
#include "runtime/parallel/thread_engine.hpp"
#include "runtime/parallel/worker_pool.hpp"
#include "runtime/visitor_engine.hpp"
#include "seed/seed_select.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::runtime;

// ---- spsc_channel -----------------------------------------------------------

TEST(SpscChannel, SingleThreadedFifoAcrossBlocks) {
  parallel::spsc_channel<std::uint64_t, 4> ch;  // tiny blocks: force linking
  std::uint64_t out = 0;
  EXPECT_FALSE(ch.try_pop(out));
  for (std::uint64_t i = 0; i < 1000; ++i) ch.push(i);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ch.try_pop(out));
    ASSERT_EQ(out, i);
  }
  EXPECT_FALSE(ch.try_pop(out));
}

TEST(SpscChannel, InterleavedPushPopRecyclesBlocks) {
  parallel::spsc_channel<std::uint64_t, 8> ch;
  std::uint64_t next_pop = 0, out = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ch.push(i);
    if (i % 3 == 0) {
      ASSERT_TRUE(ch.try_pop(out));
      ASSERT_EQ(out, next_pop++);
    }
  }
  while (ch.try_pop(out)) {
    ASSERT_EQ(out, next_pop++);
  }
  EXPECT_EQ(next_pop, 10000u);
}

TEST(SpscChannel, ConcurrentStressPreservesOrderAndCompleteness) {
  constexpr std::uint64_t k_items = 200000;
  parallel::spsc_channel<std::uint64_t, 64> ch;
  std::atomic<bool> start{false};
  std::thread producer([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::uint64_t i = 0; i < k_items; ++i) ch.push(i);
  });
  std::uint64_t received = 0;
  std::uint64_t spins = 0;
  bool ordered = true;
  start.store(true, std::memory_order_release);
  while (received < k_items) {
    std::uint64_t out = 0;
    if (ch.try_pop(out)) {
      ordered = ordered && out == received;
      ++received;
    } else if (++spins % 1024 == 0) {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(received, k_items);
  std::uint64_t out = 0;
  EXPECT_FALSE(ch.try_pop(out));
}

// ---- superstep_barrier ------------------------------------------------------

TEST(SuperstepBarrier, AggregatesContributionsPerEpoch) {
  constexpr std::size_t k_parties = 4;
  constexpr std::uint64_t k_epochs = 50;
  parallel::superstep_barrier barrier(k_parties);
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> parties;
  for (std::size_t w = 0; w < k_parties; ++w) {
    parties.emplace_back([&, w] {
      for (std::uint64_t e = 0; e < k_epochs; ++e) {
        // Party w contributes w + e; the sum and max are epoch functions.
        // On even epochs it also offers priority 100 + e - w (the fold is
        // 100 + e - 3); on odd epochs nobody offers one.
        const auto agg =
            e % 2 == 0 ? barrier.arrive_and_wait(
                             w + e, static_cast<double>(w + e), false,
                             100 + e - w)
                       : barrier.arrive_and_wait(w + e,
                                                 static_cast<double>(w + e));
        const std::uint64_t want_sum =
            k_parties * e + k_parties * (k_parties - 1) / 2;
        const double want_max = static_cast<double>(k_parties - 1 + e);
        const std::uint64_t want_min =
            e % 2 == 0 ? 100 + e - (k_parties - 1) : UINT64_MAX;
        if (agg.outstanding != want_sum || agg.max_work != want_max ||
            agg.min_priority != want_min) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : parties) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(barrier.epoch(), k_epochs);
}

TEST(SuperstepBarrier, RejectsZeroParties) {
  EXPECT_THROW(parallel::superstep_barrier(0), std::invalid_argument);
}

// ---- worker_pool ------------------------------------------------------------

TEST(WorkerPool, RunsJobOnEveryWorkerAndIsReusable) {
  parallel::worker_pool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(3);
    pool.run([&](std::size_t w) { ++hits[w]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPool, ZeroThreadsMeansHardwareConcurrency) {
  parallel::worker_pool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

// ---- thread_engine on a toy workload ---------------------------------------

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

class ThreadEngineModes
    : public ::testing::TestWithParam<std::tuple<queue_policy, int, int>> {};

TEST_P(ThreadEngineModes, PropagatesBfsDepthOnPath) {
  const auto [policy, ranks, threads] = GetParam();
  const graph::csr_graph g(graph::generate_path(32));
  const partitioner parts(g.num_vertices(), ranks, partition_scheme::hash);
  std::vector<std::uint64_t> labels(g.num_vertices(), ~std::uint64_t{0});
  label_handler handler(g, labels);
  engine_config config{policy, execution_mode::parallel_threads, 4,
                       cost_model{}, static_cast<std::size_t>(threads)};
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
    AllShapes, ThreadEngineModes,
    ::testing::Combine(::testing::Values(queue_policy::fifo,
                                         queue_policy::priority),
                       ::testing::Values(1, 3, 8),
                       ::testing::Values(1, 2, 4)));

TEST(ThreadEngine, NoVisitorsTerminatesImmediately) {
  const graph::csr_graph g(graph::generate_path(4));
  const partitioner parts(4, 2, partition_scheme::hash);
  std::vector<std::uint64_t> labels(4, ~std::uint64_t{0});
  label_handler handler(g, labels);
  engine_config config;
  config.mode = execution_mode::parallel_threads;
  config.num_threads = 2;
  const auto metrics =
      run_visitors<label_visitor>(parts, handler, {}, config);
  EXPECT_EQ(metrics.rounds, 0u);
  EXPECT_EQ(metrics.visitors_processed, 0u);
}

TEST(ThreadEngine, MetricsAreInvariantInThreadCount) {
  const graph::csr_graph g(graph::generate_grid(16, 16));
  std::vector<phase_metrics> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const partitioner parts(g.num_vertices(), 8, partition_scheme::hash);
    std::vector<std::uint64_t> labels(g.num_vertices(), ~std::uint64_t{0});
    label_handler handler(g, labels);
    engine_config config{queue_policy::priority,
                         execution_mode::parallel_threads, 16, cost_model{},
                         threads};
    runs.push_back(run_visitors<label_visitor>(parts, handler, {{0, 0}},
                                               config));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].rounds, runs[0].rounds);
    EXPECT_EQ(runs[i].visitors_processed, runs[0].visitors_processed);
    EXPECT_EQ(runs[i].visitors_skipped, runs[0].visitors_skipped);
    EXPECT_EQ(runs[i].previsit_rejections, runs[0].previsit_rejections);
    EXPECT_EQ(runs[i].messages_local, runs[0].messages_local);
    EXPECT_EQ(runs[i].messages_remote, runs[0].messages_remote);
    EXPECT_EQ(runs[i].queue_peak_items, runs[0].queue_peak_items);
    EXPECT_DOUBLE_EQ(runs[i].sim_units, runs[0].sim_units);
  }
}

// ---- cooperative cancellation ----------------------------------------------

/// label_handler with a per-visit nap: keeps an engine run long enough that a
/// budget (deadline or external cancel) deterministically trips mid-run.
class sleepy_label_handler {
 public:
  sleepy_label_handler(const graph::csr_graph& g,
                       std::vector<std::uint64_t>& labels,
                       std::chrono::microseconds nap)
      : inner_(g, labels), nap_(nap) {}

  bool pre_visit(const label_visitor& v, int rank) {
    return inner_.pre_visit(v, rank);
  }

  template <typename Emitter>
  bool visit(const label_visitor& v, int rank, Emitter& out) {
    std::this_thread::sleep_for(nap_);
    return inner_.visit(v, rank, out);
  }

 private:
  label_handler inner_;
  std::chrono::microseconds nap_;
};

TEST(EngineCancellation, PreCancelledBudgetStopsBothEnginesImmediately) {
  const graph::csr_graph g(graph::generate_path(32));
  util::cancel_source source;
  (void)source.request_cancel();
  util::run_budget budget;
  budget.cancel = source.token();
  for (const execution_mode mode :
       {execution_mode::async, execution_mode::parallel_threads}) {
    const partitioner parts(g.num_vertices(), 4, partition_scheme::hash);
    std::vector<std::uint64_t> labels(g.num_vertices(), ~std::uint64_t{0});
    label_handler handler(g, labels);
    engine_config config;
    config.mode = mode;
    config.num_threads = 2;
    config.budget = &budget;
    try {
      (void)run_visitors<label_visitor>(parts, handler, {{0, 0}}, config);
      FAIL() << "engine ignored a cancelled budget (mode "
             << static_cast<int>(mode) << ")";
    } catch (const util::operation_cancelled& stopped) {
      EXPECT_EQ(stopped.why(), util::cancel_reason::cancelled);
    }
  }
}

// The mid-run checkpoint, deterministically: a 64x64 grid with 200µs visits
// needs seconds of work, the deadline allows ~25ms — the run *must* die at a
// checkpoint, and the polls counter proves the cooperative path (not a fluke
// exception) killed it. Exercises the superstep barrier's OR-fold vote in
// parallel_threads mode: all workers abandon the same superstep or the
// barrier would deadlock — reaching the throw at all is the proof.
TEST(EngineCancellation, DeadlineStopsEnginesMidRun) {
  const graph::csr_graph g(graph::generate_grid(64, 64));
  for (const execution_mode mode :
       {execution_mode::async, execution_mode::parallel_threads}) {
    const partitioner parts(g.num_vertices(), 8, partition_scheme::hash);
    std::vector<std::uint64_t> labels(g.num_vertices(), ~std::uint64_t{0});
    sleepy_label_handler handler(g, labels, std::chrono::microseconds(200));
    std::atomic<std::uint64_t> polls{0};
    util::run_budget budget;
    budget.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(25);
    budget.polls = &polls;
    engine_config config;
    config.mode = mode;
    config.batch_size = 4;
    config.num_threads = 2;
    config.budget = &budget;
    try {
      (void)run_visitors<label_visitor>(parts, handler, {{0, 0}}, config);
      FAIL() << "engine outlived its deadline (mode "
             << static_cast<int>(mode) << ")";
    } catch (const util::operation_cancelled& stopped) {
      EXPECT_EQ(stopped.why(), util::cancel_reason::deadline);
    }
    EXPECT_GT(polls.load(), 0u);  // the checkpoint actually ran
    // The run died early: the full grid BFS never completed its labelling.
    std::uint64_t unlabelled = 0;
    for (const std::uint64_t label : labels) {
      if (label == ~std::uint64_t{0}) ++unlabelled;
    }
    EXPECT_GT(unlabelled, 0u);
  }
}

TEST(EngineCancellation, ExternalCancelStopsThreadedRun) {
  const graph::csr_graph g(graph::generate_grid(64, 64));
  const partitioner parts(g.num_vertices(), 8, partition_scheme::hash);
  std::vector<std::uint64_t> labels(g.num_vertices(), ~std::uint64_t{0});
  sleepy_label_handler handler(g, labels, std::chrono::microseconds(200));
  util::cancel_source source;
  util::run_budget budget;
  budget.cancel = source.token();
  engine_config config;
  config.mode = execution_mode::parallel_threads;
  config.batch_size = 4;
  config.num_threads = 2;
  config.budget = &budget;

  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)source.request_cancel();
  });
  try {
    (void)run_visitors<label_visitor>(parts, handler, {{0, 0}}, config);
    FAIL() << "engine outlived an external cancel";
  } catch (const util::operation_cancelled& stopped) {
    EXPECT_EQ(stopped.why(), util::cancel_reason::cancelled);
  }
  canceller.join();
}

// ---- full-solver determinism -----------------------------------------------

graph::csr_graph random_connected_graph(graph::vertex_id n,
                                        std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, 1000, seed ^ 0x77);
  graph::connect_components(list, 1001, seed);
  return graph::csr_graph(list);
}

std::vector<graph::vertex_id> random_seeds(graph::vertex_id n,
                                           std::size_t count,
                                           std::uint64_t salt) {
  std::vector<graph::vertex_id> seeds;
  for (std::size_t i = 0; i < count; ++i) {
    seeds.push_back((salt * 2654435761u + i * 40503u) % n);
  }
  return seeds;
}

void expect_identical(const core::steiner_result& a,
                      const core::steiner_result& b) {
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.total_distance, b.total_distance);
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.spans_all_seeds, b.spans_all_seeds);
  EXPECT_EQ(a.distance_graph_edges, b.distance_graph_edges);
}

TEST(ParallelSolve, BitIdenticalToSequentialOverRandomGraphs) {
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const graph::csr_graph g = random_connected_graph(400, 0xabc + trial);
    const auto seeds = random_seeds(g.num_vertices(), 8 + trial * 3, trial);

    core::solver_config sequential;
    sequential.num_ranks = 8;
    sequential.validate = true;
    const auto reference = core::solve_steiner_tree(g, seeds, sequential);

    for (const std::size_t threads : {1u, 2u, 4u}) {
      core::solver_config par = sequential;
      par.mode = execution_mode::parallel_threads;
      par.num_threads = threads;
      const auto result = core::solve_steiner_tree(g, seeds, par);
      expect_identical(result, reference);
    }
  }
}

TEST(ParallelSolve, PhaseMetricsInvariantInThreadCount) {
  const graph::csr_graph g = random_connected_graph(500, 0x1234);
  const auto seeds = random_seeds(g.num_vertices(), 12, 7);

  std::vector<core::steiner_result> results;
  for (const std::size_t threads : {1u, 4u}) {
    core::solver_config config;
    config.num_ranks = 8;
    config.mode = execution_mode::parallel_threads;
    config.num_threads = threads;
    results.push_back(core::solve_steiner_tree(g, seeds, config));
  }
  expect_identical(results[0], results[1]);
  for (const auto& [name, m0] : results[0].phases.by_name()) {
    const auto* m1 = results[1].phases.find(name);
    ASSERT_NE(m1, nullptr) << name;
    EXPECT_EQ(m0.rounds, m1->rounds) << name;
    EXPECT_EQ(m0.visitors_processed, m1->visitors_processed) << name;
    EXPECT_EQ(m0.visitors_skipped, m1->visitors_skipped) << name;
    EXPECT_EQ(m0.previsit_rejections, m1->previsit_rejections) << name;
    EXPECT_EQ(m0.messages_local, m1->messages_local) << name;
    EXPECT_EQ(m0.messages_remote, m1->messages_remote) << name;
    EXPECT_EQ(m0.queue_peak_items, m1->queue_peak_items) << name;
    EXPECT_DOUBLE_EQ(m0.sim_units, m1->sim_units) << name;
  }
}

TEST(ParallelSolve, FifoAndBlockPartitioningStayIdentical) {
  const graph::csr_graph g = random_connected_graph(300, 0x9e9e);
  const auto seeds = random_seeds(g.num_vertices(), 10, 3);

  core::solver_config sequential;
  sequential.num_ranks = 6;
  sequential.policy = queue_policy::fifo;
  sequential.scheme = partition_scheme::block;
  const auto reference = core::solve_steiner_tree(g, seeds, sequential);

  core::solver_config par = sequential;
  par.mode = execution_mode::parallel_threads;
  par.num_threads = 3;
  expect_identical(core::solve_steiner_tree(g, seeds, par), reference);
}

TEST(ParallelSolve, DelegatesMatchSequential) {
  // A star inside a random graph forces the delegate relay path.
  graph::edge_list list = graph::generate_star(600);
  graph::assign_uniform_weights(list, 1, 50, 0x44);
  const graph::csr_graph g(list);
  const auto seeds = random_seeds(g.num_vertices(), 9, 5);

  core::solver_config sequential;
  sequential.num_ranks = 8;
  sequential.delegate_threshold = 64;  // hub qualifies
  const auto reference = core::solve_steiner_tree(g, seeds, sequential);

  core::solver_config par = sequential;
  par.mode = execution_mode::parallel_threads;
  par.num_threads = 4;
  expect_identical(core::solve_steiner_tree(g, seeds, par), reference);
}

TEST(ParallelSolve, ExactOraclePruneKeepsTreeIdentical) {
  const graph::csr_graph g = random_connected_graph(300, 0xFACE);
  const auto seeds = random_seeds(g.num_vertices(), 8, 4);
  core::solver_config config;
  config.num_ranks = 8;
  const auto reference = core::solve_steiner_tree(g, seeds, config);

  // Exact per-vertex min_s d(s, v): the tightest valid upper bound, so every
  // final label ties its bound and only the tie rule keeps it admitted.
  std::vector<graph::weight_t> bound(g.num_vertices(),
                                     graph::k_inf_distance);
  for (const graph::vertex_id s : seeds) {
    const auto sp = graph::dijkstra(g, s);
    for (graph::vertex_id v = 0; v < g.num_vertices(); ++v) {
      bound[v] = std::min(bound[v], sp.distance[v]);
    }
  }
  core::solve_assists assists;
  assists.prune_upper_bound = bound;

  for (const execution_mode mode :
       {execution_mode::async, execution_mode::parallel_threads}) {
    config.mode = mode;
    config.num_threads = 4;
    const auto result =
        core::solve_steiner_tree_assisted(g, seeds, assists, config);
    expect_identical(result, reference);
  }
}

TEST(ThreadEngine, FrontierWindowFollowsWeightOverDegree) {
  using core::voronoi_handler;
  // Unit weights on a connected graph: mean weight 1 over mean degree >= 1.
  graph::edge_list unit = graph::generate_erdos_renyi(200, 800, 0x31);
  graph::connect_components(unit, 1, 0x31);
  for (graph::weighted_edge& e : unit.edges()) e.weight = 1;
  EXPECT_EQ(voronoi_handler::frontier_window(graph::csr_graph(unit)), 1u);

  // Triangle, weights 10/20/30: W = 120 over 6 arcs, n = 3: 120*3/36.
  graph::edge_list triangle(3);
  triangle.add_undirected_edge(0, 1, 10);
  triangle.add_undirected_edge(1, 2, 20);
  triangle.add_undirected_edge(2, 0, 30);
  EXPECT_EQ(voronoi_handler::frontier_window(graph::csr_graph(triangle)), 10u);

  // The largest weight: W = 2^65 - 2 overflows 64 bits, Δ does not.
  graph::edge_list heavy(2);
  heavy.add_undirected_edge(0, 1, graph::k_inf_distance);
  EXPECT_EQ(voronoi_handler::frontier_window(graph::csr_graph(heavy)),
            graph::k_inf_distance);

  // No arcs (isolated vertices, or no vertices): no division by zero.
  EXPECT_EQ(voronoi_handler::frontier_window(
                graph::csr_graph(graph::edge_list(5))),
            1u);
  EXPECT_EQ(voronoi_handler::frontier_window(graph::csr_graph()), 1u);
}

TEST(ParallelSolve, FrontierWindowBoundsResettlement) {
  // 16 ranks share LVJ's vertices, so a batch of 4096 is each rank's whole
  // heap: without the frontier window a round or superstep settles labels
  // far past the global frontier and later ones overwrite them. With it,
  // the large batch re-settles about as little as a small one, on the
  // cooperative engine (async and BSP) and the threaded one alike.
  const io::dataset ds = io::load_dataset("LVJ");
  const auto seeds = seed::select_seeds(
      ds.graph, 64, seed::seed_strategy::bfs_level, 0xbeef);
  core::solver_config config;
  config.num_ranks = 16;
  config.policy = queue_policy::fifo;
  const auto reference = core::solve_steiner_tree(ds.graph, seeds, config);

  config.policy = queue_policy::priority;
  config.num_threads = 2;
  for (const execution_mode mode :
       {execution_mode::async, execution_mode::bsp,
        execution_mode::parallel_threads}) {
    config.mode = mode;
    std::vector<std::uint64_t> processed;
    for (const std::size_t batch : {16u, 4096u}) {
      config.batch_size = batch;
      const auto result = core::solve_steiner_tree(ds.graph, seeds, config);
      expect_identical(result, reference);
      const phase_metrics* voronoi = result.phases.find(phase_names::voronoi);
      ASSERT_NE(voronoi, nullptr);
      processed.push_back(voronoi->visitors_processed);
    }
    EXPECT_LE(2 * processed[1], 3 * processed[0])
        << "mode " << static_cast<int>(mode) << ", batch 4096: "
        << processed[1] << ", batch 16: " << processed[0];
  }
}

TEST(ParallelSolve, FrontierWindowBoundsResettlementOnNetTransport) {
  // Four net ranks each drain their own heap every superstep: without the
  // frontier window a rank settles labels far past the global frontier,
  // which later supersteps overwrite. With it, the Voronoi visits summed
  // over all ranks stay below LVJ's vertex count (about 12k against 16k;
  // without the window, about 54k).
  const io::dataset ds = io::load_dataset("LVJ");
  const auto seeds = seed::select_seeds(
      ds.graph, 64, seed::seed_strategy::bfs_level, 0xbeef);
  core::solver_config config;
  config.num_ranks = 16;
  config.policy = queue_policy::fifo;
  const auto reference = core::solve_steiner_tree(ds.graph, seeds, config);

  config.policy = queue_policy::priority;
  std::vector<runtime::net::net_solve_report> reports;
  const auto result =
      runtime::net::solve_loopback(ds.graph, seeds, config, 4, &reports);
  expect_identical(result, reference);
  std::uint64_t visits = 0;
  for (const runtime::net::net_solve_report& report : reports) {
    for (const runtime::net::rank_telemetry& t : report.telemetry) {
      if (t.phase == static_cast<std::uint8_t>(
                         runtime::net::telemetry_phase::voronoi)) {
        visits += t.visitors;
      }
    }
  }
  EXPECT_LE(visits, std::uint64_t{ds.graph.num_vertices()})
      << "Voronoi visits over 4 net ranks: " << visits;
}

/// label_handler with the frontier-window opt-in. Δ is wide enough that no
/// batch is ever cut, so the schedule is label_handler's and only the
/// fold's charge differs.
class windowed_label_handler : public label_handler {
 public:
  using label_handler::label_handler;
  [[nodiscard]] std::uint64_t frontier_window() const { return 1u << 20; }
};

TEST(FrontierWindow, FoldIsChargedOncePerRoundOnBothEngines) {
  const graph::csr_graph g(graph::generate_grid(16, 16));
  const partitioner parts(g.num_vertices(), 8, partition_scheme::hash);
  const cost_model costs;
  const double fold_units =  // log2(8 ranks) = 3
      costs.collective_alpha * 3.0 + 8.0 * costs.collective_per_byte;
  for (const execution_mode mode :
       {execution_mode::async, execution_mode::bsp,
        execution_mode::parallel_threads}) {
    for (const queue_policy policy :
         {queue_policy::priority, queue_policy::fifo}) {
      const engine_config config{policy, mode, 16, costs, 2};
      std::vector<std::uint64_t> labels(g.num_vertices(), ~std::uint64_t{0});
      label_handler plain_handler(g, labels);
      const phase_metrics plain = run_visitors<label_visitor>(
          parts, plain_handler, {{0, 0}}, config);
      labels.assign(g.num_vertices(), ~std::uint64_t{0});
      windowed_label_handler windowed_handler(g, labels);
      const phase_metrics windowed = run_visitors<label_visitor>(
          parts, windowed_handler, {{0, 0}}, config);

      const bool charged = policy == queue_policy::priority;
      EXPECT_EQ(plain.collective_calls, 0u);
      EXPECT_EQ(windowed.rounds, plain.rounds);
      EXPECT_EQ(windowed.visitors_processed, plain.visitors_processed);
      EXPECT_EQ(windowed.collective_calls, charged ? windowed.rounds : 0u);
      EXPECT_EQ(windowed.collective_bytes, charged ? 8 * windowed.rounds : 0u);
      EXPECT_NEAR(windowed.sim_units - plain.sim_units,
                  charged ? fold_units * static_cast<double>(windowed.rounds)
                          : 0.0,
                  1e-6);
    }
  }
}

TEST(FrontierWindow, VoronoiCollectiveCallsMatchRounds) {
  const graph::csr_graph g = random_connected_graph(300, 0x7a7a);
  const auto seeds = random_seeds(g.num_vertices(), 10, 5);
  for (const execution_mode mode :
       {execution_mode::async, execution_mode::bsp,
        execution_mode::parallel_threads}) {
    for (const queue_policy policy :
         {queue_policy::priority, queue_policy::fifo}) {
      core::solver_config config;
      config.num_ranks = 8;
      config.mode = mode;
      config.policy = policy;
      config.num_threads = 2;
      const auto result = core::solve_steiner_tree(g, seeds, config);
      const phase_metrics* voronoi = result.phases.find(phase_names::voronoi);
      ASSERT_NE(voronoi, nullptr);
      EXPECT_GT(voronoi->rounds, 0u);
      EXPECT_EQ(voronoi->collective_calls,
                policy == queue_policy::priority ? voronoi->rounds : 0u)
          << "mode " << static_cast<int>(mode);
    }
  }
  // The net engine charges its vote's min-fold the same way, per windowed
  // superstep; phase 6's walk-backs have no window and pay nothing.
  std::uint64_t walk_calls[2] = {};
  for (const queue_policy policy :
       {queue_policy::priority, queue_policy::fifo}) {
    core::solver_config config;
    config.policy = policy;
    const auto result = runtime::net::solve_loopback(g, seeds, config, 4);
    const phase_metrics* voronoi = result.phases.find(phase_names::voronoi);
    const phase_metrics* walks = result.phases.find(phase_names::tree_edge);
    ASSERT_NE(voronoi, nullptr);
    ASSERT_NE(walks, nullptr);
    EXPECT_GT(voronoi->rounds, 0u);
    EXPECT_EQ(voronoi->collective_calls,
              policy == queue_policy::priority ? voronoi->rounds : 0u)
        << "net";
    EXPECT_EQ(voronoi->collective_bytes,
              policy == queue_policy::priority ? 8 * voronoi->rounds : 0u)
        << "net";
    walk_calls[policy == queue_policy::fifo ? 1 : 0] = walks->collective_calls;
  }
  EXPECT_EQ(walk_calls[0], walk_calls[1]);
}

TEST(ParallelSolve, WarmStartRepairUnderThreadedEngineMatchesCold) {
  const auto base =
      graph::epoch_graph::make_base(random_connected_graph(400, 0x5151));
  const auto seeds = random_seeds(base->num_vertices(), 10, 11);

  core::solver_config config;
  config.num_ranks = 8;
  config.mode = execution_mode::parallel_threads;
  config.num_threads = 4;
  config.allow_disconnected_seeds = true;

  core::solve_artifacts donor;
  (void)core::solve_steiner_tree_assisted(
      *base->csr(), seeds, {}, config, &donor);

  const auto nbrs = base->neighbors(seeds.front());
  ASSERT_FALSE(nbrs.empty());
  graph::edge_delta delta;
  delta.edits.push_back(
      graph::edge_edit::reweight(seeds.front(), nbrs.front(), 1000));
  const auto next = base->derive(delta);
  const auto cold = core::solve_steiner_tree(*next->csr(), seeds, config);
  const auto warm = core::solve_steiner_tree_edge_warm(
      *next->csr(), donor, base->csr()->fingerprint(),
      next->delta_from_parent(), config);
  expect_identical(warm, cold);
}

}  // namespace

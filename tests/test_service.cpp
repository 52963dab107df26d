// Tests for the concurrent query service: executor pool semantics, sharded
// LRU cache behaviour, and the service facade's three execution paths (cold,
// warm start, cache hit) — including the determinism stress test: concurrent
// queries must produce bit-identical trees to sequential cold solves.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/generators.hpp"
#include "service/executor.hpp"
#include "service/metrics_text.hpp"
#include "service/result_cache.hpp"
#include "service/steiner_service.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::service;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_connected_graph(int n, weight_t w_hi, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x99);
  graph::connect_components(list, w_hi + 1, seed);
  return graph::csr_graph(list);
}

// ---- executor ---------------------------------------------------------------

TEST(Executor, RunsEveryPostedTask) {
  std::atomic<int> ran{0};
  {
    executor exec({2, 64});
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(exec.try_post([&ran](double) { ++ran; }));
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 50);
}

TEST(Executor, StatsCountExecutions) {
  executor exec({1, 64});
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(exec.try_post([&ran](double) { ++ran; }));
  }
  while (ran.load() < 10) std::this_thread::yield();
  const auto stats = exec.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.executed, 10u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.total_queue_wait_seconds, 0.0);
}

TEST(Executor, TryPostShedsLoadWhenFull) {
  executor exec({1, 1});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> ran{0};
  // Occupy the single worker, then fill the single queue slot.
  ASSERT_TRUE(exec.try_post([gate, &ran](double) { gate.wait(); ++ran; }));
  while (exec.queue_depth() > 0) std::this_thread::yield();  // worker picked up
  ASSERT_TRUE(exec.try_post([gate, &ran](double) { gate.wait(); ++ran; }));
  bool accepted_extra = exec.try_post([&ran](double) { ++ran; });
  EXPECT_FALSE(accepted_extra);
  EXPECT_EQ(exec.stats().rejected, 1u);
  release.set_value();
}

// ---- result cache -----------------------------------------------------------

result_cache::entry_ptr make_entry(std::vector<vertex_id> seeds,
                                   graph::weight_t distance,
                                   double solve_cost_seconds = 0.0,
                                   std::uint64_t epoch_id = 0) {
  auto entry = std::make_shared<cached_solve>();
  entry->seeds = std::move(seeds);
  entry->result.total_distance = distance;
  entry->solve_cost_seconds = solve_cost_seconds;
  entry->epoch_id = epoch_id;
  return entry;
}

TEST(ResultCache, HitMissAndLruEviction) {
  result_cache cache({/*capacity=*/2, /*shards=*/1});
  const cache_key a{1, 10, 0}, b{1, 20, 0}, c{1, 30, 0};
  const std::vector<vertex_id> seeds_a{1}, seeds_b{2}, seeds_c{3};
  cache.insert(a, make_entry(seeds_a, 100));
  cache.insert(b, make_entry(seeds_b, 200));

  ASSERT_NE(cache.find(a, seeds_a), nullptr);  // refreshes a: b is now LRU
  cache.insert(c, make_entry(seeds_c, 300));   // evicts b

  EXPECT_EQ(cache.find(b, seeds_b), nullptr);
  ASSERT_NE(cache.find(a, seeds_a), nullptr);
  ASSERT_NE(cache.find(c, seeds_c), nullptr);

  const auto stats = cache.snapshot();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCache, SeedMismatchIsAMissNotAWrongTree) {
  result_cache cache({4, 1});
  const cache_key key{1, 42, 0};
  cache.insert(key, make_entry({1, 2, 3}, 100));
  // Same 64-bit key, different canonical seeds (simulated hash collision).
  const std::vector<vertex_id> other{4, 5, 6};
  EXPECT_EQ(cache.find(key, other), nullptr);
  EXPECT_EQ(cache.snapshot().misses, 1u);
}

TEST(ResultCache, OccupancyNeverExceedsCapacity) {
  result_cache cache({8, 4});
  for (std::uint64_t i = 0; i < 100; ++i) {
    cache.insert(cache_key{1, i, 0},
                 make_entry({static_cast<vertex_id>(i)}, i));
  }
  const auto stats = cache.snapshot();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.insertions, 100u);
  EXPECT_EQ(stats.insertions - stats.evictions, stats.entries);
}

TEST(ResultCache, CostAwareEvictionPrefersCheapEntries) {
  // Capacity 3, window 4: on overflow the cheapest-to-recompute entry within
  // the LRU tail window is evicted, not necessarily the coldest.
  result_cache cache({/*capacity=*/3, /*shards=*/1, /*eviction_window=*/4});
  const cache_key a{1, 10, 0}, b{1, 20, 0}, c{1, 30, 0}, d{1, 40, 0};
  const std::vector<vertex_id> sa{1}, sb{2}, sc{3}, sd{4};
  cache.insert(a, make_entry(sa, 100, /*cost=*/10.0));  // expensive, coldest
  cache.insert(b, make_entry(sb, 200, /*cost=*/0.001));  // cheap
  cache.insert(c, make_entry(sc, 300, /*cost=*/5.0));
  cache.insert(d, make_entry(sd, 400, /*cost=*/7.0));  // overflow

  EXPECT_EQ(cache.find(b, sb), nullptr);  // cheap b went, not cold a
  EXPECT_NE(cache.find(a, sa), nullptr);
  EXPECT_NE(cache.find(c, sc), nullptr);
  EXPECT_NE(cache.find(d, sd), nullptr);
  EXPECT_EQ(cache.snapshot().evictions, 1u);
}

TEST(ResultCache, EvictionWindowOneIsPlainLru) {
  result_cache cache({/*capacity=*/2, /*shards=*/1, /*eviction_window=*/1});
  const cache_key a{1, 10, 0}, b{1, 20, 0}, c{1, 30, 0};
  const std::vector<vertex_id> sa{1}, sb{2}, sc{3};
  cache.insert(a, make_entry(sa, 100, /*cost=*/0.001));  // cheap but also LRU
  cache.insert(b, make_entry(sb, 200, /*cost=*/9.0));
  cache.insert(c, make_entry(sc, 300, /*cost=*/9.0));
  EXPECT_EQ(cache.find(a, sa), nullptr);  // window 1: strict LRU order
  EXPECT_NE(cache.find(b, sb), nullptr);
  EXPECT_NE(cache.find(c, sc), nullptr);
}

TEST(ResultCache, CostAwareEvictionNeverDropsTheFreshInsert) {
  // Window larger than the shard: the just-inserted MRU entry must survive
  // even when it is the cheapest of all.
  result_cache cache({/*capacity=*/2, /*shards=*/1, /*eviction_window=*/8});
  const cache_key a{1, 10, 0}, b{1, 20, 0}, c{1, 30, 0};
  const std::vector<vertex_id> sa{1}, sb{2}, sc{3};
  cache.insert(a, make_entry(sa, 100, /*cost=*/5.0));
  cache.insert(b, make_entry(sb, 200, /*cost=*/6.0));
  cache.insert(c, make_entry(sc, 300, /*cost=*/0.001));  // cheapest, freshest
  EXPECT_NE(cache.find(c, sc), nullptr);
  EXPECT_EQ(cache.find(a, sa), nullptr);  // cheapest *candidate* evicted
}

TEST(ResultCache, StaleEpochEntriesEvictFirst) {
  // Window 1 would be plain LRU — but a stale-epoch entry anywhere in the
  // shard outranks LRU order as the victim.
  result_cache cache({/*capacity=*/2, /*shards=*/1, /*eviction_window=*/1});
  cache.set_live_epoch(1);
  const cache_key a{1, 10, 0}, b{1, 20, 0}, c{1, 30, 0};
  const std::vector<vertex_id> sa{1}, sb{2}, sc{3};
  cache.insert(a, make_entry(sa, 100, /*cost=*/9.0, /*epoch=*/1));  // live, LRU
  cache.insert(b, make_entry(sb, 200, /*cost=*/9.0, /*epoch=*/0));  // stale
  cache.insert(c, make_entry(sc, 300, /*cost=*/9.0, /*epoch=*/1));  // overflow

  EXPECT_EQ(cache.find(b, sb), nullptr);  // stale b went, not LRU-tail a
  EXPECT_NE(cache.find(a, sa), nullptr);  // the sole live entry survived
  EXPECT_NE(cache.find(c, sc), nullptr);
}

TEST(ResultCache, AllLiveFallsBackToCostAwareWindow) {
  result_cache cache({/*capacity=*/3, /*shards=*/1, /*eviction_window=*/4});
  cache.set_live_epoch(2);
  const cache_key a{1, 10, 0}, b{1, 20, 0}, c{1, 30, 0}, d{1, 40, 0};
  const std::vector<vertex_id> sa{1}, sb{2}, sc{3}, sd{4};
  cache.insert(a, make_entry(sa, 100, /*cost=*/10.0, /*epoch=*/2));
  cache.insert(b, make_entry(sb, 200, /*cost=*/0.001, /*epoch=*/2));
  cache.insert(c, make_entry(sc, 300, /*cost=*/5.0, /*epoch=*/2));
  cache.insert(d, make_entry(sd, 400, /*cost=*/7.0, /*epoch=*/2));
  EXPECT_EQ(cache.find(b, sb), nullptr);  // cheapest live in the window
  EXPECT_NE(cache.find(a, sa), nullptr);
}

TEST(ResultCache, RetireEpochsPurgesOldEntries) {
  result_cache cache({8, 2});
  const std::vector<vertex_id> seeds{1};
  for (std::uint64_t e = 0; e < 4; ++e) {
    cache.insert(cache_key{e, 10, 0}, make_entry(seeds, 100, 0.0, e));
  }
  cache.set_live_epoch(3);
  EXPECT_EQ(cache.retire_epochs_before(2), 2u);  // epochs 0 and 1 purged
  const auto stats = cache.snapshot();
  EXPECT_EQ(stats.retired, 2u);
  EXPECT_EQ(stats.evictions, 0u);  // retirement is not capacity pressure
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(cache.find(cache_key{0, 10, 0}, seeds), nullptr);
  EXPECT_EQ(cache.find(cache_key{1, 10, 0}, seeds), nullptr);
  EXPECT_NE(cache.find(cache_key{2, 10, 0}, seeds), nullptr);
  EXPECT_NE(cache.find(cache_key{3, 10, 0}, seeds), nullptr);
}

// ---- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, BucketsAreLog2Microseconds) {
  EXPECT_EQ(latency_histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(latency_histogram::bucket_of(0.5e-6), 0u);
  EXPECT_EQ(latency_histogram::bucket_of(1.5e-6), 0u);
  EXPECT_EQ(latency_histogram::bucket_of(2.5e-6), 1u);
  EXPECT_EQ(latency_histogram::bucket_of(5.0e-6), 2u);
  EXPECT_EQ(latency_histogram::bucket_of(1.0e-3), 9u);    // 1024 µs
  EXPECT_EQ(latency_histogram::bucket_of(3600.0),
            latency_histogram::k_buckets - 1);  // clamps to the last bucket
}

TEST(LatencyHistogram, CountsMeanAndQuantiles) {
  latency_histogram hist;
  for (int i = 0; i < 90; ++i) hist.record(10e-6);   // ~10 µs: bucket [8,16)
  for (int i = 0; i < 10; ++i) hist.record(900e-6);  // ~0.9 ms tail
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.mean(), (90 * 10e-6 + 10 * 900e-6) / 100.0, 1e-12);
  // p50 falls inside the 8-16 µs bucket; p99 in the 512-1024 µs bucket.
  EXPECT_GE(snap.quantile(0.50), 8e-6);
  EXPECT_LE(snap.quantile(0.50), 16e-6);
  EXPECT_GE(snap.quantile(0.99), 512e-6);
  EXPECT_LE(snap.quantile(0.99), 1024e-6);
  EXPECT_LE(snap.quantile(1.0), 1024e-6);
  EXPECT_EQ(latency_histogram{}.snapshot().quantile(0.5), 0.0);  // empty
}

// ---- service facade ---------------------------------------------------------

service_config quiet_config(std::size_t threads) {
  service_config config;
  config.exec.num_threads = threads;
  config.exec.queue_capacity = 64;
  config.solver.num_ranks = 8;
  return config;
}

TEST(Service, ColdThenCacheHit) {
  steiner_service svc(make_connected_graph(150, 20, 21), quiet_config(2));
  query q;
  q.seeds = {3, 70, 120};
  const auto first = svc.solve(request{q});
  EXPECT_EQ(first.kind, solve_kind::cold);
  const auto second = svc.solve(request{q});
  EXPECT_EQ(second.kind, solve_kind::cache_hit);
  EXPECT_EQ(second.result.tree_edges, first.result.tree_edges);
  EXPECT_EQ(second.result.total_distance, first.result.total_distance);
  EXPECT_EQ(second.solve_seconds, 0.0);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cold_solves, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(Service, SeedOrderAndDuplicatesShareACacheEntry) {
  steiner_service svc(make_connected_graph(150, 20, 22), quiet_config(1));
  query a, b;
  a.seeds = {3, 70, 120};
  b.seeds = {120, 3, 70, 3};  // same canonical set
  (void)svc.solve(request{a});
  const auto second = svc.solve(request{b});
  EXPECT_EQ(second.kind, solve_kind::cache_hit);
}

// A seed edit on a live epoch is a cold solve pre-seeded from the fragments
// the earlier solve published for the seeds it kept.
TEST(Service, SeedEditIsFragmentAssistedCold) {
  const auto g = make_connected_graph(200, 25, 23);
  steiner_service svc(graph::csr_graph(g), quiet_config(2));
  query base;
  base.seeds = {5, 60, 110, 170};
  (void)svc.solve(request{base});

  query edited;
  edited.seeds = {5, 60, 110, 170, 42};
  const auto assisted = svc.solve(request{edited});
  EXPECT_EQ(assisted.kind, solve_kind::cold);
  EXPECT_GT(assisted.assist.fragments_injected, 0u);
  EXPECT_EQ(svc.stats().fragment_assisted, 1u);
  EXPECT_EQ(svc.stats().warm_solves, 0u);

  // Bit-identical to an independent cold solve.
  const auto cold =
      core::solve_steiner_tree(g, edited.seeds, svc.config().solver);
  EXPECT_EQ(assisted.result.tree_edges, cold.tree_edges);
  EXPECT_EQ(assisted.result.total_distance, cold.total_distance);
}

TEST(Service, QueryFlagsForceFreshColdSolves) {
  steiner_service svc(make_connected_graph(150, 20, 25), quiet_config(1));
  query q;
  q.seeds = {3, 70, 120};
  q.use_cache = false;
  q.allow_warm_start = false;
  const auto first = svc.solve(request{q});
  const auto second = svc.solve(request{q});
  EXPECT_EQ(first.kind, solve_kind::cold);
  EXPECT_EQ(second.kind, solve_kind::cold);
  EXPECT_EQ(svc.stats().cold_solves, 2u);
  EXPECT_EQ(second.result.tree_edges, first.result.tree_edges);
}

TEST(Service, DistributedColdSolveBitIdenticalToInProcess) {
  const auto g = make_connected_graph(220, 25, 27);
  auto config = quiet_config(2);
  config.distributed.world = 3;
  steiner_service dist_svc(graph::csr_graph(g), config);
  steiner_service local_svc(graph::csr_graph(g), quiet_config(2));
  query q;
  q.seeds = {5, 60, 110, 170};
  const auto dist = dist_svc.solve(request{q});
  const auto local = local_svc.solve(request{q});
  EXPECT_EQ(dist.kind, solve_kind::cold);
  EXPECT_EQ(dist.result.tree_edges, local.result.tree_edges);
  EXPECT_EQ(dist.result.total_distance, local.result.total_distance);

  // Distributed solves still feed the cache: identical repeats are free.
  const auto repeat = dist_svc.solve(request{q});
  EXPECT_EQ(repeat.kind, solve_kind::cache_hit);

  const auto stats = dist_svc.stats();
  EXPECT_EQ(stats.distributed_solves, 1u);
  EXPECT_GT(stats.net_bytes_modelled, 0u);
  EXPECT_GE(stats.net_bytes_sent, stats.net_bytes_modelled);
  EXPECT_GT(stats.net_frames_sent, 0u);
  EXPECT_GT(stats.net_supersteps, 0u);

  // The paired modelled/measured histograms carry one sample per superstep
  // and surface in /metrics next to the latency families.
  const auto snap = dist_svc.snapshot();
  EXPECT_GT(snap.comm_bytes_measured.count, 0u);
  EXPECT_EQ(snap.comm_bytes_measured.count, snap.comm_bytes_modelled.count);
  const std::string text = render_metrics_text(snap);
  EXPECT_NE(text.find("dsteiner_net_bytes_sent_total"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_comm_bytes_measured_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("dsteiner_comm_bytes_modelled_bucket"),
            std::string::npos);
}

TEST(Service, ConfigOverrideGetsItsOwnCacheEntry) {
  steiner_service svc(make_connected_graph(150, 20, 26), quiet_config(1));
  query q;
  q.seeds = {3, 70, 120};
  const auto with_default = svc.solve(request{q});

  core::solver_config other = svc.config().solver;
  other.num_ranks = 32;
  q.config = other;
  const auto with_override = svc.solve(request{q});
  EXPECT_NE(with_override.kind, solve_kind::cache_hit);
  // Determinism: different runtime config, same tree.
  EXPECT_EQ(with_override.result.tree_edges, with_default.result.tree_edges);
}

TEST(Service, TrivialAndInvalidQueries) {
  steiner_service svc(make_connected_graph(100, 15, 27), quiet_config(1));
  query empty;
  const auto none = svc.solve(request{empty});
  EXPECT_TRUE(none.result.tree_edges.empty());

  query single;
  single.seeds = {7};
  EXPECT_TRUE(svc.solve(request{single}).result.tree_edges.empty());

  query invalid;
  invalid.seeds = {1, 100000};
  query_handle handle = svc.submit(request{invalid});
  EXPECT_THROW((void)handle.get(), std::out_of_range);
}

TEST(Service, SubmitRejectsWhenSaturated) {
  auto config = quiet_config(1);
  config.exec.queue_capacity = 1;
  steiner_service svc(make_connected_graph(300, 25, 28), config);
  std::vector<query_handle> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < 12; ++i) {
    query q;
    q.seeds = {2, static_cast<vertex_id>(20 + i), 250};
    q.use_cache = false;
    q.allow_warm_start = false;
    query_handle h = svc.submit(request{q});
    // A queue-full refusal resolves the handle before submit() returns.
    if (h.status() == request_status::rejected) {
      EXPECT_EQ(h.rejection(), reject_reason::queue_full);
      EXPECT_THROW((void)h.get(), request_rejected);
      ++rejected;
    } else {
      accepted.push_back(std::move(h));
    }
  }
  for (auto& h : accepted) (void)h.get();
  EXPECT_EQ(accepted.size() + rejected, 12u);
  EXPECT_EQ(svc.stats().exec.rejected, rejected);
  // With a single worker and one queue slot, 12 back-to-back submissions
  // cannot all be admitted.
  EXPECT_GT(rejected, 0u);
}

// The determinism guarantee under concurrency: N worker threads x M
// interleaved queries (shared seed sets, deltas, repeats) must produce trees
// bit-identical to sequential cold solves, no matter which path (cold, warm,
// cache) each query took.
TEST(Service, ConcurrentQueriesMatchSequentialColdSolves) {
  const auto g = make_connected_graph(250, 25, 29);
  core::solver_config solver;
  solver.num_ranks = 8;

  std::vector<std::vector<vertex_id>> seed_sets = {
      {3, 70, 120},          {3, 70, 120, 200},    {3, 120, 200},
      {10, 50, 90, 130},     {10, 50, 90, 130, 170}, {50, 90, 130},
      {3, 70, 120},          {10, 50, 90, 130},    {220, 40, 8},
      {220, 40, 8, 111},     {3, 70, 120, 200},    {50, 90, 130},
  };

  // Sequential cold references.
  std::vector<core::steiner_result> reference;
  reference.reserve(seed_sets.size());
  for (const auto& seeds : seed_sets) {
    reference.push_back(core::solve_steiner_tree(g, seeds, solver));
  }

  service_config config;
  config.solver = solver;
  config.exec.num_threads = 4;
  config.exec.queue_capacity = 64;
  steiner_service svc(graph::csr_graph(g), config);

  for (int round = 0; round < 2; ++round) {
    std::vector<query_handle> handles;
    handles.reserve(seed_sets.size());
    for (const auto& seeds : seed_sets) {
      query q;
      q.seeds = seeds;
      handles.push_back(svc.submit(request{q}));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const auto qr = handles[i].get();
      EXPECT_EQ(qr.result.tree_edges, reference[i].tree_edges)
          << "query " << i << " via " << to_string(qr.kind);
      EXPECT_EQ(qr.result.total_distance, reference[i].total_distance);
    }
  }

  const auto stats = svc.stats();
  EXPECT_EQ(stats.queries, 2 * seed_sets.size());
  EXPECT_EQ(stats.cold_solves + stats.warm_solves + stats.cache_hits +
                stats.coalesced,
            stats.queries);
  EXPECT_GT(stats.cache_hits + stats.coalesced, 0u);  // repeats get deduped
}

// Single-flight: N identical queries racing through a multi-worker pool must
// trigger exactly one cold solve — the rest coalesce onto it or hit the cache
// it populates.
TEST(Service, IdenticalConcurrentQueriesCoalesceIntoOneSolve) {
  service_config config;
  config.solver.num_ranks = 8;
  config.exec.num_threads = 4;
  config.exec.queue_capacity = 32;
  config.enable_warm_start = false;
  steiner_service svc(make_connected_graph(300, 25, 30), config);

  query q;
  q.seeds = {5, 60, 110, 170, 230};
  std::vector<query_handle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(svc.submit(request{q}));

  std::vector<query_result> results;
  results.reserve(handles.size());
  for (auto& h : handles) results.push_back(h.get());
  for (const auto& r : results) {
    EXPECT_EQ(r.result.tree_edges, results.front().result.tree_edges);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cold_solves, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 7u);
}

// Metrics export: snapshot() must agree with the counters and have histogram
// populations matching the paths taken.
TEST(Service, SnapshotExportsCountersAndLatencyHistograms) {
  steiner_service svc(make_connected_graph(150, 20, 31), quiet_config(2));
  query q;
  q.seeds = {3, 70, 120};
  (void)svc.solve(request{q});  // cold
  (void)svc.solve(request{q});  // cache hit
  query uncached = q;
  uncached.use_cache = false;
  (void)svc.solve(request{uncached});  // warm start from the same-epoch donor

  const auto snap = svc.snapshot();
  EXPECT_EQ(snap.stats.queries, 3u);
  EXPECT_EQ(snap.stats.cold_solves, 1u);
  EXPECT_EQ(snap.stats.cache_hits, 1u);
  EXPECT_EQ(snap.stats.warm_solves, 1u);
  EXPECT_EQ(snap.total.count, 3u);       // every query lands in `total`
  EXPECT_EQ(snap.queue_wait.count, 3u);  // and records its queue wait
  EXPECT_EQ(snap.cold_solve.count, 1u);
  EXPECT_EQ(snap.warm_solve.count, 1u);
  EXPECT_EQ(snap.cache_hit_total.count, 1u);
  EXPECT_GT(snap.cold_solve.mean(), 0.0);
  EXPECT_GE(snap.cold_solve.quantile(0.99), snap.cold_solve.quantile(0.01));
}

// Core-budget split: intra-query engine workers = budget / executor workers,
// and a budgeted parallel solve still matches the sequential tree.
TEST(Service, CoreBudgetGrantsIntraQueryThreads) {
  const auto g = make_connected_graph(200, 25, 32);
  auto config = quiet_config(2);
  config.core_budget = 8;
  config.solver.mode = runtime::execution_mode::parallel_threads;
  steiner_service svc(graph::csr_graph(g), config);
  EXPECT_EQ(svc.intra_query_threads(), 4u);  // 8 cores / 2 executor workers
  EXPECT_EQ(svc.config().solver.num_threads, 4u);

  query q;
  q.seeds = {5, 60, 110, 170};
  const auto parallel = svc.solve(request{q});
  EXPECT_EQ(parallel.kind, solve_kind::cold);

  core::solver_config sequential = quiet_config(1).solver;
  const auto reference = core::solve_steiner_tree(g, q.seeds, sequential);
  EXPECT_EQ(parallel.result.tree_edges, reference.tree_edges);
  EXPECT_EQ(parallel.result.total_distance, reference.total_distance);
}

// An explicit per-query thread count wins over the service grant.
TEST(Service, ExplicitThreadCountIsNotOverridden) {
  auto config = quiet_config(4);
  config.core_budget = 16;
  config.solver.mode = runtime::execution_mode::parallel_threads;
  config.solver.num_threads = 2;
  steiner_service svc(make_connected_graph(100, 15, 33), config);
  EXPECT_EQ(svc.config().solver.num_threads, 2u);
}

// ---- graph epochs through the service ---------------------------------------

// An edge reweight no longer rebuilds the service: the old epoch's cached
// tree stays servable through an epoch pin, and the new epoch's first solve
// is a warm-start repair bit-identical to a cold solve of the mutated graph.
TEST(ServiceEpochs, AdvanceServesOldEpochAndEdgeWarmStartsNew) {
  const auto g = make_connected_graph(200, 25, 40);
  steiner_service svc(graph::csr_graph(g), quiet_config(2));
  query q;
  q.seeds = {5, 60, 110, 170};
  const auto first = svc.solve(request{q});
  EXPECT_EQ(first.kind, solve_kind::cold);
  EXPECT_EQ(first.epoch, 0u);
  EXPECT_EQ(svc.current_epoch(), 0u);

  const auto nbrs = g.neighbors(60);
  ASSERT_FALSE(nbrs.empty());
  graph::edge_delta delta;
  delta.edits.push_back(graph::edge_edit::reweight(60, nbrs.front(), 400));
  EXPECT_EQ(svc.advance_epoch(delta), 1u);
  EXPECT_EQ(svc.current_epoch(), 1u);
  EXPECT_EQ(svc.stats().epoch_advances, 1u);

  // Pinned to the old epoch: still a cache hit with the old tree.
  query pinned = q;
  pinned.epoch = 0;
  const auto old_hit = svc.solve(request{pinned});
  EXPECT_EQ(old_hit.kind, solve_kind::cache_hit);
  EXPECT_EQ(old_hit.epoch, 0u);
  EXPECT_EQ(old_hit.result.tree_edges, first.result.tree_edges);

  // Unpinned: edge-delta warm start on the mutated graph.
  const auto fresh = svc.solve(request{q});
  EXPECT_EQ(fresh.kind, solve_kind::warm_start);
  EXPECT_EQ(fresh.epoch, 1u);
  EXPECT_GT(fresh.warm.edge_edits, 0u);
  const auto cold = core::solve_steiner_tree(svc.graph(), q.seeds,
                                             svc.config().solver);
  EXPECT_EQ(fresh.result.tree_edges, cold.tree_edges);
  EXPECT_EQ(fresh.result.total_distance, cold.total_distance);
  EXPECT_EQ(svc.stats().edge_warm_solves, 1u);

  // And the repaired solve populated the new epoch's cache.
  const auto again = svc.solve(request{q});
  EXPECT_EQ(again.kind, solve_kind::cache_hit);
  EXPECT_EQ(again.epoch, 1u);
}

// Stale-while-warming: with max_stale_epochs on, a current-epoch miss serves
// the previous epoch's cached tree (marked stale) and refreshes behind.
TEST(ServiceEpochs, StaleHitServesPreviousEpochAndRefreshes) {
  const auto g = make_connected_graph(200, 25, 41);
  auto config = quiet_config(2);
  config.max_stale_epochs = 1;
  steiner_service svc(graph::csr_graph(g), config);
  query q;
  q.seeds = {5, 60, 110, 170};
  const auto first = svc.solve(request{q});

  const auto nbrs = g.neighbors(5);
  ASSERT_FALSE(nbrs.empty());
  graph::edge_delta delta;
  delta.edits.push_back(graph::edge_edit::reweight(5, nbrs.front(), 300));
  (void)svc.advance_epoch(delta);

  const auto stale = svc.solve(request{q});
  EXPECT_EQ(stale.kind, solve_kind::stale_hit);
  EXPECT_EQ(stale.epoch, 0u);  // explicitly the old epoch's tree
  EXPECT_EQ(stale.result.tree_edges, first.result.tree_edges);
  EXPECT_EQ(svc.stats().stale_hits, 1u);

  // A stale-intolerant query gets the current epoch (solving, coalescing
  // with the background refresh, or hitting the cache it already filled).
  query strict = q;
  strict.allow_stale = false;
  const auto fresh = svc.solve(request{strict});
  EXPECT_EQ(fresh.epoch, 1u);
  const auto cold = core::solve_steiner_tree(svc.graph(), q.seeds,
                                             svc.config().solver);
  EXPECT_EQ(fresh.result.tree_edges, cold.tree_edges);

  // Pinned queries never serve stale: the pin is authoritative.
  query pinned = q;
  pinned.epoch = 1;
  EXPECT_NE(svc.solve(request{pinned}).kind, solve_kind::stale_hit);
}

// Epoch retirement: once the live window slides past an epoch, its cache
// entries and donors are purged and pins to it are rejected.
TEST(ServiceEpochs, RetirementEvictsOldEpochState) {
  const auto g = make_connected_graph(150, 20, 42);
  auto config = quiet_config(1);
  config.epochs.max_live_epochs = 2;
  steiner_service svc(graph::csr_graph(g), config);
  query q;
  q.seeds = {3, 70, 120};
  (void)svc.solve(request{q});  // epoch-0 entry + donor

  const auto nbrs = g.neighbors(3);
  ASSERT_FALSE(nbrs.empty());
  graph::edge_delta delta;
  delta.edits.push_back(graph::edge_edit::reweight(3, nbrs.front(), 200));
  (void)svc.advance_epoch(delta);
  EXPECT_EQ(svc.epochs().first_live_epoch(), 0u);  // still within the window
  (void)svc.advance_epoch(graph::edge_delta{});
  EXPECT_EQ(svc.epochs().first_live_epoch(), 1u);  // epoch 0 retired

  EXPECT_GE(svc.stats().cache.retired, 1u);
  query pinned = q;
  pinned.epoch = 0;
  EXPECT_THROW((void)svc.solve(request{pinned}), std::invalid_argument);
}

// Donors repair only their own seed set: after an epoch advance, a set one
// seed away from every donor solves cold while the donor's own set repairs.
TEST(ServiceEpochs, EdgeWarmStartNeedsTheDonorsSeedSet) {
  const auto g = make_connected_graph(200, 25, 43);
  steiner_service svc(graph::csr_graph(g), quiet_config(1));
  query q;
  q.seeds = {5, 60, 110, 170};
  (void)svc.solve(request{q});

  const auto nbrs = g.neighbors(60);
  ASSERT_FALSE(nbrs.empty());
  graph::edge_delta delta;
  delta.edits.push_back(graph::edge_edit::reweight(60, nbrs.front(), 400));
  (void)svc.advance_epoch(delta);

  query edited = q;
  edited.seeds.push_back(42);
  const auto fresh = svc.solve(request{edited});
  EXPECT_NE(fresh.kind, solve_kind::warm_start);
  const auto cold = core::solve_steiner_tree(svc.graph(), edited.seeds,
                                             svc.config().solver);
  EXPECT_EQ(fresh.result.tree_edges, cold.tree_edges);

  const auto repaired = svc.solve(request{q});
  EXPECT_EQ(repaired.kind, solve_kind::warm_start);
  EXPECT_EQ(svc.stats().warm_solves, 1u);
  EXPECT_EQ(svc.stats().edge_warm_solves, 1u);
}

// The §I "removing classes of vertices" interaction is one edge-disable
// delta: every pair incident to a removed vertex, one edit per pair.
TEST(ServiceEpochs, VertexClassRemovalIsOneEdgeDisableEpoch) {
  const auto g = make_connected_graph(200, 25, 44);
  auto config = quiet_config(1);
  config.solver.allow_disconnected_seeds = true;
  steiner_service svc(graph::csr_graph(g), config);
  query q;
  q.seeds = {5, 60, 120};
  const auto before = svc.solve(request{q});

  const auto gone = [](vertex_id v) { return v >= 150 && v < 160; };
  graph::edge_delta delta;
  graph::edge_list survivors(g.num_vertices());
  for (vertex_id u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vertex_id t = nbrs[i];
      if (u >= t) continue;
      if (!gone(u) && !gone(t)) {
        survivors.add_undirected_edge(u, t, wts[i]);
      } else if (i == 0 || t != nbrs[i - 1]) {  // one edit per parallel group
        delta.edits.push_back(graph::edge_edit::disable(u, t));
      }
    }
  }
  ASSERT_FALSE(delta.edits.empty());
  EXPECT_EQ(svc.advance_epoch(delta), 1u);
  for (vertex_id v = 150; v < 160; ++v) {
    EXPECT_EQ(svc.graph().degree(v), 0u) << v;
  }

  // Bit-identical to a solve on the hand-filtered edge list.
  const auto after = svc.solve(request{q});
  EXPECT_EQ(after.epoch, 1u);
  const auto reference = core::solve_steiner_tree(
      graph::csr_graph(survivors), q.seeds, config.solver);
  EXPECT_EQ(after.result.tree_edges, reference.tree_edges);
  EXPECT_EQ(after.result.total_distance, reference.total_distance);

  // A query pinned to the old epoch still gets the old tree.
  query pinned = q;
  pinned.epoch = 0;
  const auto old = svc.solve(request{pinned});
  EXPECT_EQ(old.epoch, 0u);
  EXPECT_EQ(old.result.tree_edges, before.result.tree_edges);
  EXPECT_EQ(old.result.total_distance, before.result.total_distance);
}

// The Prometheus text rendering agrees with the counters and emits valid
// histogram series.
TEST(ServiceEpochs, MetricsTextRendersSnapshot) {
  steiner_service svc(make_connected_graph(120, 15, 43), quiet_config(1));
  query q;
  q.seeds = {3, 70, 110};
  (void)svc.solve(request{q});
  (void)svc.solve(request{q});

  const std::string text = render_metrics_text(svc.snapshot());
  EXPECT_NE(text.find("# TYPE dsteiner_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dsteiner_queries_total 2"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_cold_solves_total 1"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dsteiner_query_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("dsteiner_query_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dsteiner_query_seconds_count 2"), std::string::npos);
  // Custom prefix namespacing.
  const std::string other = render_metrics_text(svc.snapshot(), "steiner");
  EXPECT_NE(other.find("steiner_queries_total 2"), std::string::npos);
  EXPECT_EQ(other.find("dsteiner_"), std::string::npos);
}

// A failing leader must not strand coalesced waiters: everyone sees the
// exception.
TEST(Service, CoalescedQueriesPropagateLeaderFailure) {
  graph::edge_list list(4);
  list.add_undirected_edge(0, 1, 1);
  list.add_undirected_edge(2, 3, 1);
  service_config config;
  config.exec.num_threads = 2;
  steiner_service svc(graph::csr_graph(list), config);

  query q;
  q.seeds = {0, 2};  // disconnected; allow_disconnected_seeds is off
  std::vector<query_handle> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(svc.submit(request{q}));
  for (auto& h : handles) EXPECT_THROW((void)h.get(), std::runtime_error);
}

}  // namespace

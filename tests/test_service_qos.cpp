// Tests for the request/handle service API: the priority admission queue,
// cost-aware deadline admission, queued/solving deadline expiry, cooperative
// cancellation (mid-cold-solve, both engines), query_handle status
// transitions, the stale-refresh dedup token, and the QoS metrics export.
//
// Timing strategy: every "mid-X" assertion rides on a solve that takes tens
// of milliseconds (n = 50k ER graph ~ 90ms) while the triggering event lands
// within ~1ms — generous margins that only widen under sanitizers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/generators.hpp"
#include "service/executor.hpp"
#include "service/metrics_text.hpp"
#include "service/steiner_service.hpp"
#include "util/cancellation.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::service;
using namespace std::chrono_literals;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_connected_graph(int n, weight_t w_hi, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x99);
  graph::connect_components(list, w_hi + 1, seed);
  return graph::csr_graph(list);
}

/// A graph whose cold solve takes ~90ms — long enough that a cancel or
/// deadline landing within a millisecond or two is reliably "mid-solve".
graph::csr_graph make_slow_graph(std::uint64_t seed) {
  return make_connected_graph(50000, 30, seed);
}

std::vector<vertex_id> spread_seeds(const graph::csr_graph& g, std::size_t k,
                                    std::uint64_t salt) {
  std::vector<vertex_id> seeds;
  for (std::size_t i = 0; i < k; ++i) {
    seeds.push_back(
        static_cast<vertex_id>((salt * 7919 + i * 104729) % g.num_vertices()));
  }
  return seeds;
}

void spin_until(const std::function<bool()>& done,
                std::chrono::seconds limit = 20s) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "spin timed out";
    std::this_thread::sleep_for(100us);
  }
}

// ---- executor: priority queue semantics -------------------------------------

TEST(PriorityExecutor, DrainsLevelsInOrderFifoWithin) {
  executor exec({/*threads=*/1, /*capacity=*/16});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(exec.try_post([gate](double) { gate.wait(); }));
  // Wait for the gate to occupy the worker, then queue behind it.
  while (exec.queue_depth() > 0) std::this_thread::yield();

  std::mutex order_mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return executor::task([&, tag](double) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    });
  };
  const auto enqueue = [&](int tag, std::size_t priority) {
    executor::task_options opts;
    opts.priority = priority;
    ASSERT_TRUE(exec.try_post(record(tag), std::move(opts)));
  };
  enqueue(20, 2);
  enqueue(10, 1);
  enqueue(21, 2);
  enqueue(0, 0);
  enqueue(11, 1);
  enqueue(1, 0);
  EXPECT_EQ(exec.backlog_ahead(0), 2u);
  EXPECT_EQ(exec.backlog_ahead(1), 4u);
  EXPECT_EQ(exec.backlog_ahead(2), 6u);
  release.set_value();
  spin_until([&] {
    const std::lock_guard<std::mutex> lock(order_mutex);
    return order.size() == 6;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));
}

TEST(PriorityExecutor, ExpiredQueuedTaskIsDroppedNotRun) {
  executor exec({1, 16});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(exec.try_post([gate](double) { gate.wait(); }));
  while (exec.queue_depth() > 0) std::this_thread::yield();

  std::atomic<bool> ran{false};
  std::atomic<bool> dropped{false};
  executor::task_options opts;
  opts.deadline = std::chrono::steady_clock::now() + 1ms;
  opts.on_dropped = [&dropped](drop_reason why) {
    EXPECT_EQ(why, drop_reason::expired);
    dropped = true;
  };
  ASSERT_TRUE(exec.try_post([&ran](double) { ran = true; }, std::move(opts)));
  std::this_thread::sleep_for(5ms);  // let the deadline lapse while queued
  release.set_value();
  spin_until([&] { return dropped.load(); });
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(exec.stats().expired, 1u);
}

TEST(PriorityExecutor, FullQueueDisplacesLowestLevelForHigherArrival) {
  executor exec({1, /*capacity=*/1});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(exec.try_post([gate](double) { gate.wait(); }));
  while (exec.queue_depth() > 0) std::this_thread::yield();

  std::atomic<bool> background_dropped{false};
  std::atomic<bool> interactive_ran{false};
  executor::task_options bg;
  bg.priority = 2;
  bg.on_dropped = [&](drop_reason why) {
    EXPECT_EQ(why, drop_reason::displaced);
    background_dropped = true;
  };
  ASSERT_TRUE(exec.try_post([](double) {}, std::move(bg)));

  // Same-level arrival cannot displace: rejected.
  executor::task_options bg2;
  bg2.priority = 2;
  EXPECT_FALSE(exec.try_post([](double) {}, std::move(bg2)));

  executor::task_options it;
  it.priority = 0;
  ASSERT_TRUE(
      exec.try_post([&](double) { interactive_ran = true; }, std::move(it)));
  EXPECT_TRUE(background_dropped.load());
  release.set_value();
  spin_until([&] { return interactive_ran.load(); });
  const auto stats = exec.stats();
  EXPECT_EQ(stats.displaced, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

// ---- query_handle lifecycle -------------------------------------------------

service_config one_worker_config() {
  service_config config;
  config.exec.num_threads = 1;
  config.exec.queue_capacity = 64;
  config.solver.num_ranks = 8;
  return config;
}

TEST(RequestApi, StatusTransitionsQueuedRunningDone) {
  steiner_service svc(make_connected_graph(200, 25, 50), one_worker_config());
  query gate_query;
  gate_query.seeds = {3, 70, 120};
  request gate(gate_query);  // the query->request promotion constructor
  query_handle gate_handle = svc.submit(gate);
  ASSERT_TRUE(gate_handle.valid());
  spin_until([&] { return gate_handle.status() != request_status::queued; });

  request r;
  r.q.seeds = {5, 90, 150};
  r.priority = priority_class::batch;
  query_handle h = svc.submit(r);
  EXPECT_TRUE(h.valid());
  EXPECT_GT(h.id(), gate_handle.id());
  EXPECT_EQ(h.priority(), priority_class::batch);
  // Queued or later (the gate may already have finished): never a terminal
  // failure state on this path.
  EXPECT_FALSE(h.status() == request_status::rejected);

  const query_result via_get = h.get();
  EXPECT_EQ(h.status(), request_status::done);
  EXPECT_TRUE(h.finished());
  const auto via_poll = h.poll();
  ASSERT_TRUE(via_poll.has_value());
  EXPECT_EQ(via_poll->result.tree_edges, via_get.result.tree_edges);
  EXPECT_TRUE(h.wait_for(0s));
  (void)gate_handle.get();

  // Empty handles refuse access instead of crashing.
  query_handle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.status(), std::logic_error);
}

TEST(RequestApi, SolveRequestConvenienceAndFailurePropagation) {
  steiner_service svc(make_connected_graph(150, 20, 51), one_worker_config());
  request r;
  r.q.seeds = {3, 70, 120};
  const query_result out = svc.solve(r);
  EXPECT_EQ(out.kind, solve_kind::cold);

  request invalid;
  invalid.q.seeds = {1, 1000000};
  query_handle h = svc.submit(invalid);
  EXPECT_THROW((void)h.get(), std::out_of_range);
  EXPECT_EQ(h.status(), request_status::failed);
}

TEST(Cancellation, PreCancelledTokenNeverReachesAWorker) {
  steiner_service svc(make_connected_graph(150, 20, 52), one_worker_config());
  util::cancel_source source;
  (void)source.request_cancel();
  request r;
  r.q.seeds = {3, 70, 120};
  r.cancel = source.token();
  query_handle h = svc.submit(r);
  EXPECT_EQ(h.status(), request_status::cancelled);
  EXPECT_THROW((void)h.get(), util::operation_cancelled);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queries, 0u);  // no solver work happened
}

TEST(Cancellation, WhileQueuedFreesTheSlotWithoutSolving) {
  steiner_service svc(make_slow_graph(53), one_worker_config());
  request gate;
  gate.q.seeds = spread_seeds(svc.graph(), 12, 1);
  query_handle gate_handle = svc.submit(gate);
  spin_until([&] { return gate_handle.status() == request_status::running; });

  request r;
  r.q.seeds = spread_seeds(svc.graph(), 12, 2);
  query_handle h = svc.submit(r);
  EXPECT_EQ(h.status(), request_status::queued);
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());  // second call reports "already requested"
  try {
    (void)h.get();
    FAIL() << "cancelled request returned a result";
  } catch (const util::operation_cancelled& stopped) {
    EXPECT_EQ(stopped.why(), util::cancel_reason::cancelled);
  }
  EXPECT_EQ(h.status(), request_status::cancelled);
  (void)gate_handle.get();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.cold_solves, 1u);  // only the gate solved
}

/// Mid-cold-solve cancellation: the solver checkpoint must fire (the solve
/// stops early — no cold_solve counted, nothing cached) and the worker must
/// come back (a follow-up query completes).
void expect_cancel_stops_cold_solve(service_config config,
                                    std::uint64_t graph_seed) {
  steiner_service svc(make_slow_graph(graph_seed), config);
  request r;
  r.q.seeds = spread_seeds(svc.graph(), 12, 3);
  query_handle h = svc.submit(r);
  spin_until([&] { return h.status() == request_status::running; });
  (void)h.cancel();
  try {
    (void)h.get();
    FAIL() << "cancelled request returned a result";
  } catch (const util::operation_cancelled& stopped) {
    EXPECT_EQ(stopped.why(), util::cancel_reason::cancelled);
  }
  EXPECT_EQ(h.status(), request_status::cancelled);

  auto stats = svc.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queries, 1u);      // it *started* executing...
  EXPECT_EQ(stats.cold_solves, 0u);  // ...but the checkpoint killed it early

  // Partial work was discarded: re-issuing the query is a fresh cold solve
  // (nothing was cached), and the worker is free to run it.
  request again;
  again.q.seeds = r.q.seeds;
  const query_result out = svc.solve(again);
  EXPECT_EQ(out.kind, solve_kind::cold);
  EXPECT_EQ(svc.stats().cold_solves, 1u);
}

TEST(Cancellation, MidColdSolveSequentialEngine) {
  expect_cancel_stops_cold_solve(one_worker_config(), 54);
}

TEST(Cancellation, MidColdSolveParallelThreadsEngine) {
  service_config config = one_worker_config();
  config.solver.mode = runtime::execution_mode::parallel_threads;
  config.solver.num_threads = 4;
  expect_cancel_stops_cold_solve(config, 55);
}

// ---- deadlines --------------------------------------------------------------

TEST(Deadline, ExpiresWhileQueued) {
  steiner_service svc(make_slow_graph(56), one_worker_config());
  request gate;
  gate.q.seeds = spread_seeds(svc.graph(), 12, 4);
  query_handle gate_handle = svc.submit(gate);
  spin_until([&] { return gate_handle.status() == request_status::running; });

  // ~90ms of gate ahead of it, 10ms of deadline: expires in the queue.
  request r;
  r.q.seeds = spread_seeds(svc.graph(), 12, 5);
  r.deadline = std::chrono::steady_clock::now() + 10ms;
  query_handle h = svc.submit(r);
  EXPECT_NE(h.status(), request_status::rejected);  // admitted (no history)
  try {
    (void)h.get();
    FAIL() << "expired request returned a result";
  } catch (const util::operation_cancelled& stopped) {
    EXPECT_EQ(stopped.why(), util::cancel_reason::deadline);
  }
  EXPECT_EQ(h.status(), request_status::expired);
  (void)gate_handle.get();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.cold_solves, 1u);  // the expired request never solved
}

TEST(Deadline, ExpiresMidSolveAtACheckpoint) {
  steiner_service svc(make_slow_graph(57), one_worker_config());
  request r;
  r.q.seeds = spread_seeds(svc.graph(), 12, 6);
  // Fresh service: no latency history, so admission lets this through; the
  // solve (~90ms) then outlives the 20ms deadline and dies at a checkpoint.
  r.deadline = std::chrono::steady_clock::now() + 20ms;
  query_handle h = svc.submit(r);
  EXPECT_NE(h.status(), request_status::rejected);
  try {
    (void)h.get();
    FAIL() << "request outlived its deadline";
  } catch (const util::operation_cancelled& stopped) {
    EXPECT_EQ(stopped.why(), util::cancel_reason::deadline);
  }
  EXPECT_EQ(h.status(), request_status::expired);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.cold_solves, 0u);
}

TEST(Deadline, CostModelRejectsUnmeetableAdmitsGenerous) {
  // n=20k: cold solves ~30ms, so after two warm-up solves the cold p50 is
  // well above the 2ms deadline below (and far below the 60s one).
  steiner_service svc(make_connected_graph(20000, 30, 58), one_worker_config());
  for (std::uint64_t warm = 0; warm < 2; ++warm) {
    request w;
    w.q.seeds = spread_seeds(svc.graph(), 12, 10 + warm);
    (void)svc.solve(w);
  }

  request tight;
  tight.q.seeds = spread_seeds(svc.graph(), 12, 20);
  tight.deadline = std::chrono::steady_clock::now() + 2ms;
  query_handle rejected = svc.submit(tight);
  EXPECT_EQ(rejected.status(), request_status::rejected);
  EXPECT_EQ(rejected.rejection(), reject_reason::deadline_unmeetable);
  try {
    (void)rejected.get();
    FAIL() << "rejected request returned a result";
  } catch (const request_rejected& why) {
    EXPECT_EQ(why.reason(), reject_reason::deadline_unmeetable);
  }

  request generous;
  generous.q.seeds = spread_seeds(svc.graph(), 12, 21);
  generous.deadline = std::chrono::steady_clock::now() + 60s;
  query_handle admitted = svc.submit(generous);
  EXPECT_EQ(admitted.get().kind, solve_kind::cold);
  EXPECT_EQ(admitted.status(), request_status::done);
  // The worker books that solve's completion just after resolving its
  // handle; until then the solve still counts as running work ahead of the
  // next arrival.
  while (svc.stats().exec.executed < 3) std::this_thread::yield();

  // A cached repeat is predicted near-free: even a tight deadline admits.
  request cached;
  cached.q.seeds = spread_seeds(svc.graph(), 12, 21);
  cached.deadline = std::chrono::steady_clock::now() + 5ms;
  query_handle hit = svc.submit(cached);
  EXPECT_EQ(hit.get().kind, solve_kind::cache_hit);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.deadline_rejected, 1u);
  EXPECT_EQ(stats.shed_by_priority[priority_index(priority_class::interactive)],
            1u);
}

// ---- priority ordering under saturation --------------------------------------

TEST(Priority, InteractiveOvertakesBatchAndBackgroundInQueue) {
  steiner_service svc(make_slow_graph(59), one_worker_config());
  request gate;
  gate.q.seeds = spread_seeds(svc.graph(), 12, 30);
  query_handle gate_handle = svc.submit(gate);
  spin_until([&] { return gate_handle.status() == request_status::running; });

  // Enqueue background, then batch, then interactive — reverse priority
  // order — while the single worker is pinned by the gate.
  std::vector<query_handle> background, batch, interactive;
  for (std::uint64_t i = 0; i < 3; ++i) {
    request r;
    r.q.seeds = spread_seeds(svc.graph(), 10, 40 + i);
    r.priority = priority_class::background;
    background.push_back(svc.submit(r));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    request r;
    r.q.seeds = spread_seeds(svc.graph(), 10, 50 + i);
    r.priority = priority_class::batch;
    batch.push_back(svc.submit(r));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    request r;
    r.q.seeds = spread_seeds(svc.graph(), 10, 60 + i);
    r.priority = priority_class::interactive;
    interactive.push_back(svc.submit(r));
  }
  (void)gate_handle.get();

  // query_result::query_id counts execution starts: every interactive query
  // must have begun before every batch query, and batch before background.
  const auto max_id = [](std::vector<query_handle>& handles) {
    std::uint64_t max = 0;
    for (auto& h : handles) max = std::max(max, h.get().query_id);
    return max;
  };
  const auto min_id = [](std::vector<query_handle>& handles) {
    std::uint64_t min = ~std::uint64_t{0};
    for (auto& h : handles) min = std::min(min, h.get().query_id);
    return min;
  };
  EXPECT_LT(max_id(interactive), min_id(batch));
  EXPECT_LT(max_id(batch), min_id(background));

  const auto stats = svc.stats();
  EXPECT_EQ(stats.admitted_by_priority[0], 4u);  // gate + 3 interactive
  EXPECT_EQ(stats.admitted_by_priority[1], 3u);
  EXPECT_EQ(stats.admitted_by_priority[2], 3u);
}

TEST(Priority, SaturationDisplacesBackgroundForInteractive) {
  service_config config = one_worker_config();
  config.exec.queue_capacity = 1;
  steiner_service svc(make_slow_graph(60), config);
  request gate;
  gate.q.seeds = spread_seeds(svc.graph(), 12, 70);
  query_handle gate_handle = svc.submit(gate);
  spin_until([&] { return gate_handle.status() == request_status::running; });

  request bg;
  bg.q.seeds = spread_seeds(svc.graph(), 10, 71);
  bg.priority = priority_class::background;
  query_handle bg_handle = svc.submit(bg);
  EXPECT_EQ(bg_handle.status(), request_status::queued);

  request it;
  it.q.seeds = spread_seeds(svc.graph(), 10, 72);
  query_handle it_handle = svc.submit(it);  // full queue: displaces bg
  EXPECT_EQ(bg_handle.status(), request_status::rejected);
  EXPECT_EQ(bg_handle.rejection(), reject_reason::queue_full);
  EXPECT_THROW((void)bg_handle.get(), request_rejected);

  (void)gate_handle.get();
  EXPECT_EQ(it_handle.get().kind, solve_kind::cold);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.exec.displaced, 1u);
  EXPECT_EQ(stats.shed_by_priority[priority_index(priority_class::background)],
            1u);
}

// ---- stale-refresh dedup ----------------------------------------------------

TEST(StaleRefresh, BurstOfStaleHitsEnqueuesOneRefresh) {
  const auto g = make_connected_graph(200, 25, 61);
  service_config config = one_worker_config();
  config.max_stale_epochs = 1;
  config.enable_warm_start = false;  // make the refresh a plain cold solve
  steiner_service svc(graph::csr_graph(g), config);
  query q;
  q.seeds = {5, 60, 110, 170};
  (void)svc.solve(request{q});  // epoch-0 entry

  const auto nbrs = g.neighbors(5);
  ASSERT_FALSE(nbrs.empty());
  graph::edge_delta delta;
  delta.edits.push_back(graph::edge_edit::reweight(5, nbrs.front(), 300));
  (void)svc.advance_epoch(delta);

  // Five stale-tolerant queries, all queued before any refresh can run (the
  // refresh sits at background priority behind these interactive ones).
  std::vector<query_handle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(svc.submit(request{q}));
  for (auto& h : handles) {
    EXPECT_EQ(h.get().kind, solve_kind::stale_hit);
  }
  // Let the single deduplicated refresh drain.
  spin_until([&] { return svc.stats().cold_solves == 2; });

  const auto stats = svc.stats();
  EXPECT_EQ(stats.stale_hits, 5u);
  EXPECT_EQ(stats.stale_refreshes, 1u);
  EXPECT_EQ(stats.stale_refreshes_deduped, 4u);
  EXPECT_EQ(stats.cold_solves, 2u);  // epoch-0 original + one refresh

  // The refresh populated the current epoch: no more staleness.
  const auto fresh = svc.solve(request{q});
  EXPECT_EQ(fresh.kind, solve_kind::cache_hit);
  EXPECT_EQ(fresh.epoch, 1u);
}

// ---- metrics export ---------------------------------------------------------

TEST(QosMetrics, SnapshotAndTextExposeQosCounters) {
  steiner_service svc(make_connected_graph(150, 20, 62), one_worker_config());
  util::cancel_source source;
  (void)source.request_cancel();
  request r;
  r.q.seeds = {3, 70, 120};
  r.cancel = source.token();
  (void)svc.submit(r);  // cancelled on arrival

  request ok;
  ok.q.seeds = {3, 70, 120};
  ok.priority = priority_class::batch;
  (void)svc.submit(ok).get();

  const std::string text = render_metrics_text(svc.snapshot());
  EXPECT_NE(text.find("dsteiner_cancelled_total 1"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_deadline_rejected_total 0"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_deadline_expired_total 0"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_stale_refreshes_total 0"), std::string::npos);
  EXPECT_NE(
      text.find("dsteiner_requests_admitted_total{priority=\"batch\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("dsteiner_requests_shed_total{priority=\"interactive\"} 0"),
      std::string::npos);
  EXPECT_NE(text.find("dsteiner_executor_displaced_total 0"),
            std::string::npos);
  EXPECT_NE(text.find("dsteiner_leader_abandoned_total 0"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_fragment_published_total"), std::string::npos);
  EXPECT_NE(text.find("dsteiner_oracle_pruned_visitors_total"),
            std::string::npos);
}

// ---- earliest-deadline-first within a priority level ------------------------

TEST(PriorityExecutor, EarliestDeadlineFirstWithinLevel) {
  executor exec({/*threads=*/1, /*capacity=*/16});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(exec.try_post([gate](double) { gate.wait(); }));
  while (exec.queue_depth() > 0) std::this_thread::yield();

  std::mutex order_mutex;
  std::vector<int> order;
  const auto enqueue = [&](int tag,
                           std::chrono::steady_clock::time_point deadline) {
    executor::task_options opts;
    opts.deadline = deadline;
    ASSERT_TRUE(exec.try_post(
        [&, tag](double) {
          const std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(tag);
        },
        std::move(opts)));
  };
  const auto now = std::chrono::steady_clock::now();
  // Same level, arrival order 3 (no deadline), 2 (late), 0 (early), 1 (mid),
  // 4 (no deadline): EDF must run 0, 1, 2, then the deadline-free FIFO tail.
  enqueue(3, std::chrono::steady_clock::time_point::max());
  enqueue(2, now + 60s);
  enqueue(0, now + 20s);
  enqueue(1, now + 40s);
  enqueue(4, std::chrono::steady_clock::time_point::max());
  release.set_value();
  spin_until([&] {
    const std::lock_guard<std::mutex> lock(order_mutex);
    return order.size() == 5;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Deadline, TighterDeadlineOvertakesEarlierArrivalSameClass) {
  steiner_service svc(make_slow_graph(63), one_worker_config());
  request gate;
  gate.q.seeds = spread_seeds(svc.graph(), 12, 80);
  query_handle gate_handle = svc.submit(gate);
  spin_until([&] { return gate_handle.status() == request_status::running; });

  // Arrives first with a loose deadline, then a tight-deadline sibling at
  // the same priority: EDF must start the tight one first.
  request loose;
  loose.q.seeds = spread_seeds(svc.graph(), 10, 81);
  loose.deadline = std::chrono::steady_clock::now() + 120s;
  query_handle loose_handle = svc.submit(loose);
  request tight;
  tight.q.seeds = spread_seeds(svc.graph(), 10, 82);
  tight.deadline = std::chrono::steady_clock::now() + 60s;
  query_handle tight_handle = svc.submit(tight);

  (void)gate_handle.get();
  EXPECT_LT(tight_handle.get().query_id, loose_handle.get().query_id);
}

// ---- cancellation propagation into coalesced leaders ------------------------

TEST(Cancellation, AbandonedRidersStopACoalescedRefreshLeader) {
  // A background stale-refresh is the canonical requester-less leader: its
  // solve has no budget of its own, so before this PR it always ran to
  // completion. Riders that coalesce onto it and then cancel must now stop
  // the underlying solve via the group-abandon token.
  const auto g = make_slow_graph(64);
  service_config config = one_worker_config();
  config.exec.num_threads = 2;  // leader + a lane for the riders to park from
  config.max_stale_epochs = 1;
  config.enable_warm_start = false;
  config.enable_fragment_reuse = false;
  steiner_service svc(graph::csr_graph(g), config);
  query q;
  q.seeds = spread_seeds(svc.graph(), 12, 90);
  (void)svc.solve(request{q});  // epoch-0 entry (the stale donor)

  const auto nbrs = g.neighbors(q.seeds.front());
  ASSERT_FALSE(nbrs.empty());
  graph::edge_delta delta;
  delta.edits.push_back(
      graph::edge_edit::reweight(q.seeds.front(), nbrs.front(), 500));
  (void)svc.advance_epoch(delta);

  // Stale hit: serves epoch-0 and enqueues the background refresh leader.
  EXPECT_EQ(svc.solve(request{q}).kind, solve_kind::stale_hit);
  spin_until([&] { return svc.stats().stale_refreshes == 1; });
  std::this_thread::sleep_for(20ms);  // leader picked up + registered (~90ms solve)

  // A rider that would coalesce onto the refresh: fresh-epoch query, same
  // key. It parks on the leader, then cancels — the last (only) interest
  // share leaving must abandon the leader's solve at its next checkpoint.
  util::cancel_source rider_cancel;
  request rider;
  rider.q = q;
  rider.q.allow_stale = false;
  rider.cancel = rider_cancel.token();
  query_handle rider_handle = svc.submit(rider);
  std::this_thread::sleep_for(10ms);  // let the rider park on the leader
  (void)rider_cancel.request_cancel();
  EXPECT_THROW((void)rider_handle.get(), util::operation_cancelled);

  // The leader dies abandoned instead of completing: its cold solve never
  // lands, and the counter records the abandonment.
  spin_until([&] { return svc.stats().leader_abandoned == 1; });
  const auto stats = svc.stats();
  EXPECT_EQ(stats.leader_abandoned, 1u);
  EXPECT_EQ(stats.cold_solves, 1u);  // only the epoch-0 original
}

// ---- running-solve accounting in the admission cost model -------------------

TEST(Deadline, RunningSolveCountsTowardCompletionEstimate) {
  // Warm the cost model with one real solve, then pin the only worker with a
  // second one. A request whose deadline covers the per-path estimate but
  // not the *running* solve's residual must be rejected as unmeetable even
  // though the queue itself is empty — only the in-flight work blocks it.
  steiner_service svc(make_slow_graph(65), one_worker_config());
  request warmup;
  warmup.q.seeds = spread_seeds(svc.graph(), 12, 95);
  warmup.q.use_cache = false;
  (void)svc.submit(warmup).get();
  // The worker books total_exec_seconds after the promise resolves.
  spin_until([&] { return svc.stats().exec.mean_exec_seconds() > 0.0; });
  const double mean_exec = svc.stats().exec.mean_exec_seconds();
  const double cold_p50 = svc.snapshot().cold_solve.quantile(0.5);

  request pin;
  pin.q.seeds = spread_seeds(svc.graph(), 12, 96);
  pin.q.use_cache = false;
  query_handle pin_handle = svc.submit(pin);
  spin_until([&] { return pin_handle.status() == request_status::running; });

  // Deadline = path estimate + half the running solve's cost: meetable on an
  // idle worker, unmeetable behind a just-started ~mean_exec solve.
  request tight;
  tight.q.seeds = spread_seeds(svc.graph(), 12, 97);
  tight.q.use_cache = false;
  tight.q.allow_warm_start = false;
  tight.deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(cold_p50 + 0.5 * mean_exec));
  query_handle tight_handle = svc.submit(tight);
  EXPECT_EQ(tight_handle.status(), request_status::rejected);
  EXPECT_EQ(tight_handle.rejection(), reject_reason::deadline_unmeetable);

  // Same shape with a generous deadline: admitted while the worker is busy.
  request generous = tight;
  generous.q.seeds = spread_seeds(svc.graph(), 12, 98);
  generous.deadline = std::chrono::steady_clock::now() + 120s;
  query_handle generous_handle = svc.submit(generous);
  EXPECT_NE(generous_handle.status(), request_status::rejected);
  (void)pin_handle.get();
  (void)generous_handle.get();
}

}  // namespace

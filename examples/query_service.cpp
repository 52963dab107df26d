// query_service — the multi-user serving workflow on top of the Steiner
// query service (src/service/).
//
// Simulates the paper's §I interactive-exploration scenario at serving
// scale: several "analysts" issue queries against one shared graph —
//   - hot queries: the same seed sets re-requested again and again
//     (dashboards, page reloads)            -> result-cache hits;
//   - edit sessions: a seed set evolving by small add/remove deltas
//     (interactive refinement)              -> cold solves pre-seeded from
//                                              the cells of the kept seeds;
//   - cold queries: fresh seed sets         -> full Alg. 3 solves.
//
// After the mixed workload, an "analyst" reweights a handful of edges: the
// service derives a graph *epoch* instead of rebuilding — the hot seed sets
// then warm-start through the edge-delta repair while the previous epoch's
// cached trees keep serving stale-tolerant readers.
//
// Every query returns a tree bit-identical to a cold solve of its epoch; the
// printout shows how much latency each path saved.
//
// Queries go through the request/handle API — submit(request) returns a
// query_handle with cancel()/status()/poll()/get() — with hot dashboards at
// interactive priority and edit sessions at batch. A final QoS vignette
// cancels an abandoned query mid-solve and bounds one with a deadline, the
// §I behaviours a bare future cannot express.
//
//   $ ./query_service [--metrics-text]
//
//   --metrics-text   additionally print the Prometheus text exposition of
//                    steiner_service::snapshot() (what a scrape endpoint
//                    would serve)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "io/dataset.hpp"
#include "seed/seed_select.hpp"
#include "service/metrics_text.hpp"
#include "service/steiner_service.hpp"
#include "util/cancellation.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace dsteiner;

  bool metrics_text = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-text") == 0) {
      metrics_text = true;
    } else {
      std::fprintf(stderr, "usage: %s [--metrics-text]\n", argv[0]);
      return 2;
    }
  }

  // One shared graph: the CiteSeer mirror (smallest Table III dataset).
  const io::dataset data = io::load_dataset("CTS");
  std::printf("graph: %s mirror, %llu vertices, %llu arcs\n",
              data.spec.paper_name.c_str(),
              static_cast<unsigned long long>(data.graph.num_vertices()),
              static_cast<unsigned long long>(data.graph.num_arcs()));

  service::service_config config;
  config.exec.num_threads = 4;
  config.exec.queue_capacity = 128;
  config.solver.num_ranks = 8;
  // Edit deltas may pick seeds outside the largest component; serve forests
  // rather than failing the query (the interactive sessions do the same).
  config.solver.allow_disconnected_seeds = true;
  // Stale-tolerant readers may take the previous epoch's cached tree while
  // the new epoch warms up.
  config.max_stale_epochs = 1;
  // A donor repairs only its own seed set, so keep one for each of the 15
  // sets the workload solves: the hot sets still have theirs when the graph
  // changes.
  config.donor_history = 16;
  service::steiner_service svc(data.graph, config);

  // Three analysts start from different seed sets.
  std::vector<std::vector<graph::vertex_id>> base_sets;
  for (std::uint64_t analyst = 0; analyst < 3; ++analyst) {
    base_sets.push_back(seed::select_seeds(
        svc.graph(), 12, seed::seed_strategy::bfs_level, 0x5eed + analyst));
  }

  // Mixed workload: per analyst, one cold query, three hot repeats (the
  // dashboard — interactive priority), then an edit session of four
  // single-seed deltas, each re-queried twice (refinement — batch priority).
  std::vector<service::request> workload;
  for (const auto& base : base_sets) {
    service::request r;
    r.q.seeds = base;
    workload.push_back(r);                        // cold
    for (int hot = 0; hot < 3; ++hot) workload.push_back(r);  // cache hits

    service::request edit = r;
    edit.priority = service::priority_class::batch;
    for (std::uint64_t step = 0; step < 4; ++step) {
      if (step % 2 == 0) {
        edit.q.seeds.push_back((base.front() + 101 * (step + 1)) %
                               svc.graph().num_vertices());
      } else {
        edit.q.seeds.pop_back();
        edit.q.seeds.erase(edit.q.seeds.begin());
      }
      workload.push_back(edit);                   // fragment-assisted cold
      workload.push_back(edit);                   // immediate re-query: hit
    }
  }

  std::printf("submitting %zu requests over %zu worker threads...\n\n",
              workload.size(), config.exec.num_threads);
  util::timer wall;
  std::vector<service::query_handle> handles;
  handles.reserve(workload.size());
  for (auto& r : workload) handles.push_back(svc.submit(r));

  util::table table({"id", "path", "epoch", "|S|", "tree edges", "D(GS)",
                     "queue wait", "solve", "total"});
  const auto add_result = [&table](const service::query_result& qr) {
    table.add_row({std::to_string(qr.query_id), to_string(qr.kind),
                   std::to_string(qr.epoch),
                   std::to_string(qr.result.num_seeds),
                   std::to_string(qr.result.tree_edges.size()),
                   util::with_commas(qr.result.total_distance),
                   util::format_duration(qr.queue_wait_seconds),
                   util::format_duration(qr.solve_seconds),
                   util::format_duration(qr.total_seconds)});
  };
  for (auto& h : handles) add_result(h.get());

  // Graph mutation: reweight a few edges touching the first analyst's seeds.
  // advance_epoch derives a copy-on-write epoch — no service rebuild, no
  // cache flush. The re-issued hot set warm-starts via the edge-delta repair
  // (or serves the old epoch's tree to stale-tolerant readers first).
  graph::edge_delta delta;
  for (std::size_t i = 0; i < 3 && i < base_sets.front().size(); ++i) {
    const graph::vertex_id u = base_sets.front()[i];
    const auto nbrs = svc.graph().neighbors(u);
    const auto wts = svc.graph().weights(u);
    if (nbrs.empty()) continue;
    delta.edits.push_back(
        graph::edge_edit::reweight(u, nbrs.front(), wts.front() + 5));
  }
  const std::uint64_t epoch = svc.advance_epoch(delta);
  std::printf("advanced to epoch %llu (%zu edge edits)...\n",
              static_cast<unsigned long long>(epoch), delta.size());
  for (const auto& base : base_sets) {
    service::request r;
    r.q.seeds = base;
    add_result(svc.solve(r));  // stale hit (epoch-1 tree) + background refresh
    r.q.allow_stale = false;
    add_result(svc.solve(r));  // current epoch: edge-warm repair or coalesce
  }
  std::printf("%s\n", table.render().c_str());

  // QoS vignette: the §I analyst abandons a query (cancel mid-solve) and
  // bounds another in time. Both stop the solver at a cooperative
  // checkpoint — no worker is left burning on abandoned work.
  {
    using namespace std::chrono_literals;
    service::request abandoned;
    abandoned.q.seeds = seed::select_seeds(svc.graph(), 14,
                                           seed::seed_strategy::bfs_level,
                                           0xabad);
    abandoned.q.use_cache = false;
    service::query_handle h = svc.submit(abandoned);
    (void)h.cancel();
    try {
      (void)h.get();
    } catch (const util::operation_cancelled&) {
      std::printf("abandoned query -> %s\n", to_string(h.status()));
    }

    service::request bounded;
    bounded.q.seeds = seed::select_seeds(svc.graph(), 14,
                                         seed::seed_strategy::bfs_level,
                                         0xb0b0);
    bounded.q.use_cache = false;
    bounded.deadline = std::chrono::steady_clock::now() + 50ms;
    service::query_handle b = svc.submit(bounded);
    try {
      const auto qr = b.get();
      std::printf("deadline-bound query -> done in %s\n",
                  util::format_duration(qr.total_seconds).c_str());
    } catch (const service::request_rejected&) {
      std::printf("deadline-bound query -> rejected (unmeetable)\n");
    } catch (const util::operation_cancelled&) {
      std::printf("deadline-bound query -> %s\n", to_string(b.status()));
    }
    std::printf("\n");
  }

  const auto snap = svc.snapshot();
  const auto& stats = snap.stats;
  std::printf("completed %llu queries in %s\n",
              static_cast<unsigned long long>(stats.queries),
              util::format_duration(wall.seconds()).c_str());
  std::printf("  qos         : %llu cancelled, %llu deadline-expired, "
              "%llu deadline-rejected\n",
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.deadline_expired),
              static_cast<unsigned long long>(stats.deadline_rejected));
  std::printf("  admitted    : %llu interactive / %llu batch / %llu background"
              " (refreshes: %llu, deduped %llu)\n",
              static_cast<unsigned long long>(stats.admitted_by_priority[0]),
              static_cast<unsigned long long>(stats.admitted_by_priority[1]),
              static_cast<unsigned long long>(stats.admitted_by_priority[2]),
              static_cast<unsigned long long>(stats.stale_refreshes),
              static_cast<unsigned long long>(stats.stale_refreshes_deduped));
  std::printf("  cold solves : %llu  (%llu pre-seeded from shared fragments)\n",
              static_cast<unsigned long long>(stats.cold_solves),
              static_cast<unsigned long long>(stats.fragment_assisted));
  std::printf("  warm starts : %llu  (%llu across epochs)\n",
              static_cast<unsigned long long>(stats.warm_solves),
              static_cast<unsigned long long>(stats.edge_warm_solves));
  std::printf("  stale hits  : %llu  (previous-epoch trees, refreshed behind)\n",
              static_cast<unsigned long long>(stats.stale_hits));
  std::printf("  coalesced   : %llu  (waited on an identical in-flight query)\n",
              static_cast<unsigned long long>(stats.coalesced));
  std::printf("  cache hits  : %llu  (cache: %llu hits / %llu misses, "
              "%zu entries, %llu evictions)\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              stats.cache.entries,
              static_cast<unsigned long long>(stats.cache.evictions));
  std::printf("  executor    : peak queue depth %llu, max queue wait %s\n",
              static_cast<unsigned long long>(stats.exec.peak_queue_depth),
              util::format_duration(stats.exec.max_queue_wait_seconds).c_str());

  // Per-stage latency histograms from the metrics snapshot: what a scraping
  // dashboard would chart (log2 buckets; quantiles are bucket estimates).
  std::printf("\nlatency snapshot (service::snapshot()):\n");
  util::table latency({"stage", "samples", "mean", "p50", "p90", "p99"});
  const auto add_stage = [&latency](const char* name,
                                    const service::latency_histogram::
                                        snapshot_data& h) {
    latency.add_row({name, std::to_string(h.count),
                     util::format_duration(h.mean()),
                     util::format_duration(h.quantile(0.50)),
                     util::format_duration(h.quantile(0.90)),
                     util::format_duration(h.quantile(0.99))});
  };
  add_stage("queue wait", snap.queue_wait);
  add_stage("cold solve", snap.cold_solve);
  add_stage("warm solve", snap.warm_solve);
  add_stage("cache hit (total)", snap.cache_hit_total);
  add_stage("total (all paths)", snap.total);
  std::printf("%s", latency.render().c_str());

  if (metrics_text) {
    std::printf("\n# ---- Prometheus text exposition (scrape endpoint body) ----\n");
    std::printf("%s", service::render_metrics_text(svc.snapshot()).c_str());
  }
  return 0;
}

// service-mixed: a closed loop of min(3, nproc - 1) analyst clients against a
// default-config steiner_service on the PTN mirror. Each client runs its own
// sessions (cold, exact repeat, two seed-delta edits, four hot-pool queries),
// client 0 also advances the graph epoch every few of its queries, and a
// scraper renders /metrics text on a fixed cadence.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common.hpp"
#include "core/validation.hpp"
#include "graph/connected_components.hpp"
#include "graph/edge_list.hpp"
#include "seed/seed_select.hpp"
#include "service/metrics_text.hpp"
#include "service/steiner_service.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using ds::graph::vertex_id;
using seed_set = std::vector<vertex_id>;

constexpr std::size_t k_sizes[] = {8, 16, 32};
constexpr std::size_t k_hot_pool = 64;
constexpr std::size_t k_hot_queries = 4;
/// Client 0 advances the epoch after every this many of its own queries.
constexpr std::size_t k_epoch_every = 8;
constexpr std::size_t k_edits_per_epoch = 8;
constexpr auto k_scrape_every = std::chrono::milliseconds(250);
/// Sessions per client in one trace pass.
constexpr std::size_t k_trace_sessions = 3;

/// Picks `count` component vertices not already in `taken` (which it grows).
void draw_fresh(const std::vector<vertex_id>& component, std::size_t count,
                std::set<vertex_id>& taken, ds::util::rng& gen) {
  for (std::size_t added = 0; added < count;) {
    const vertex_id v = component[gen.uniform(0, component.size() - 1)];
    if (taken.insert(v).second) ++added;
  }
}

/// Replaces two seeds of `base` with fresh component vertices.
seed_set seed_delta(const seed_set& base, const std::vector<vertex_id>& component,
                    ds::util::rng& gen) {
  std::set<vertex_id> taken(base.begin(), base.end());
  seed_set next = base;
  for (int k = 0; k < 2; ++k) {
    const std::size_t at = gen.uniform(0, next.size() - 1);
    vertex_id v = 0;
    do {
      v = component[gen.uniform(0, component.size() - 1)];
    } while (!taken.insert(v).second);
    next[at] = v;
  }
  std::sort(next.begin(), next.end());
  return next;
}

/// One analyst session: cold, exact repeat, two seed-delta edits, then hot
/// queries drawing all but two seeds from the shared hot pool. Deterministic
/// in (workload seed, client, session).
std::vector<seed_set> make_session(std::uint64_t seed, std::size_t client,
                                   std::size_t session,
                                   const std::vector<vertex_id>& component,
                                   const seed_set& hot_pool) {
  ds::util::rng gen(mix_seed(mix_seed(seed, client + 1), session));
  const std::size_t size = k_sizes[session % 3];
  std::vector<seed_set> q;
  std::set<vertex_id> taken;
  draw_fresh(component, size, taken, gen);
  q.emplace_back(taken.begin(), taken.end());
  q.push_back(q[0]);
  q.push_back(seed_delta(q[1], component, gen));
  q.push_back(seed_delta(q[2], component, gen));
  for (std::size_t h = 0; h < k_hot_queries; ++h) {
    std::set<vertex_id> s;
    for (const std::uint64_t i :
         ds::util::sample_without_replacement(hot_pool.size(), size - 2, gen)) {
      s.insert(hot_pool[i]);
    }
    draw_fresh(component, 2, s, gen);
    q.emplace_back(s.begin(), s.end());
  }
  return q;
}

/// The k-th epoch's edits: reweights of distinct existing non-loop edges.
ds::graph::edge_delta make_delta(std::uint64_t seed, std::size_t k,
                                 const ds::graph::csr_graph& g,
                                 const std::vector<vertex_id>& component,
                                 const ds::io::dataset_spec& spec) {
  ds::util::rng gen(mix_seed(seed ^ 0xed17ULL, k));
  ds::graph::edge_delta delta;
  std::set<std::pair<vertex_id, vertex_id>> seen;
  while (delta.edits.size() < k_edits_per_epoch) {
    const vertex_id u = component[gen.uniform(0, component.size() - 1)];
    const auto row = g.neighbors(u);
    if (row.empty()) continue;
    const vertex_id v = row[gen.uniform(0, row.size() - 1)];
    if (u == v || !seen.insert({std::min(u, v), std::max(u, v)}).second) {
      continue;
    }
    delta.edits.push_back(ds::graph::edge_edit::reweight(
        u, v, gen.uniform(spec.weight_lo, spec.weight_hi)));
  }
  return delta;
}

struct query_record {
  std::size_t epoch_offset = 0;  ///< epochs advanced past the base
  seed_set seeds;
  bool ok = false;
  bool rejected = false;
  std::uint64_t digest = 0;
  std::vector<ds::graph::weighted_edge> tree;
  ds::service::solve_kind kind = ds::service::solve_kind::cold;
  double latency = 0.0;
  double submit = 0.0;
  double queue_wait = 0.0;
  double solve = 0.0;
  ds::core::steiner_result result;  ///< kept for traced cold solves only
};

/// One closed-loop pass against a fresh or shared service.
struct pass_output {
  std::vector<query_record> records;
  std::vector<double> epoch_advance;
  std::size_t epoch_failures = 0;
  std::vector<double> scrape;
  double wall = 0.0;
  ds::service::service_stats stats;
};

struct shared_inputs {
  const options* opt = nullptr;
  const loaded_graph* g = nullptr;
  std::vector<vertex_id> component;
  seed_set hot_pool;
  std::size_t clients = 1;
};

/// Runs every client (plus the scraper) until `seconds` have passed
/// (checked at session boundaries) or, when `sessions` > 0, for exactly that
/// many sessions per client.
pass_output run_pass(ds::service::steiner_service& svc, const shared_inputs& in,
                     tracer& t, double seconds, std::size_t sessions,
                     bool keep_results) {
  pass_output out;
  const std::uint64_t base_epoch = svc.current_epoch();
  std::vector<std::vector<query_record>> per_client(in.clients);
  std::atomic<bool> stop_scraper{false};
  std::mutex scrape_mutex;
  std::condition_variable scrape_cv;

  const double start = now_seconds();
  std::thread scraper([&] {
    std::unique_lock lock(scrape_mutex);
    while (!scrape_cv.wait_for(lock, k_scrape_every,
                               [&] { return stop_scraper.load(); })) {
      span_scope root(t, "bench.scrape");
      const double s0 = now_seconds();
      ds::service::service_snapshot data;
      {
        span_scope snap(t, "service.snapshot", root.id());
        data = svc.snapshot();
      }
      {
        span_scope render(t, "service.render_metrics_text", root.id());
        (void)ds::service::render_metrics_text(data);
      }
      out.scrape.push_back(now_seconds() - s0);
    }
  });

  const auto client_loop = [&](std::size_t c) {
    std::size_t own = 0;
    std::size_t advances = 0;
    for (std::size_t s = 0;; ++s) {
      if (sessions > 0 ? s >= sessions : now_seconds() - start >= seconds) {
        break;
      }
      const std::vector<seed_set> plan =
          make_session(in.opt->seed, c, s, in.component, in.hot_pool);
      std::uint64_t cold_epoch = 0;
      for (std::size_t q = 0; q < plan.size(); ++q) {
        query_record rec;
        rec.seeds = plan[q];
        ds::service::request req;
        req.q.seeds = plan[q];
        if (q == 1) req.q.epoch = cold_epoch;  // the exact repeat
        const std::uint64_t qid = (c + 1) * 1000000 + own;
        span_scope root(t, "bench.query", 0, qid);
        const double q0 = now_seconds();
        try {
          ds::service::query_handle handle;
          {
            span_scope sub(t, "service.submit", root.id(), qid);
            handle = svc.submit(std::move(req));
          }
          rec.submit = now_seconds() - q0;
          ds::service::query_result r;
          {
            span_scope wait(t, "service.get", root.id(), qid);
            r = handle.get();
          }
          rec.latency = now_seconds() - q0;
          rec.ok = true;
          rec.kind = r.kind;
          rec.epoch_offset = r.epoch - base_epoch;
          rec.digest = tree_digest(r.result);
          rec.tree = r.result.tree_edges;
          rec.queue_wait = r.queue_wait_seconds;
          rec.solve = r.solve_seconds;
          if (q == 0) cold_epoch = r.epoch;
          if (keep_results && r.kind == ds::service::solve_kind::cold) {
            rec.result = std::move(r.result);
          }
        } catch (const ds::service::request_rejected&) {
          rec.rejected = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "service-mixed query failed: %s\n", e.what());
        }
        per_client[c].push_back(std::move(rec));
        ++own;
        if (c == 0 && own % k_epoch_every == 0) {
          const ds::graph::edge_delta delta =
              make_delta(in.opt->seed, advances++, in.g->graph, in.component,
                         in.g->spec);
          span_scope epoch_root(t, "bench.epoch");
          span_scope adv(t, "service.advance_epoch", epoch_root.id());
          const double a0 = now_seconds();
          try {
            svc.advance_epoch(delta);
            out.epoch_advance.push_back(now_seconds() - a0);  // client 0 only
          } catch (const std::exception& e) {
            std::fprintf(stderr, "service-mixed epoch advance failed: %s\n",
                         e.what());
            ++out.epoch_failures;
          }
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < in.clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& th : threads) th.join();
  out.wall = now_seconds() - start;
  {
    const std::lock_guard lock(scrape_mutex);
    stop_scraper = true;
  }
  scrape_cv.notify_all();
  scraper.join();
  out.stats = svc.stats();
  for (auto& v : per_client) {
    for (auto& rec : v) out.records.push_back(std::move(rec));
  }
  return out;
}

/// Independent epoch graphs for the reference gate: the base CSR with the
/// first k deltas' reweights applied, rebuilt through an edge list.
std::vector<ds::graph::csr_graph> epoch_graphs(const shared_inputs& in,
                                               std::size_t count) {
  const ds::graph::csr_graph& base = in.g->graph;
  std::vector<ds::graph::weight_t> weights = base.arc_weights();
  const auto& offsets = base.offsets();
  const auto& targets = base.targets();
  const auto set_arcs = [&](vertex_id u, vertex_id v, ds::graph::weight_t w) {
    for (std::uint64_t a = offsets[u]; a < offsets[u + 1]; ++a) {
      if (targets[a] == v) weights[a] = w;
    }
  };
  std::vector<ds::graph::csr_graph> graphs;
  for (std::size_t k = 0; k < count; ++k) {
    if (k > 0) {
      for (const auto& e :
           make_delta(in.opt->seed, k - 1, base, in.component, in.g->spec)
               .edits) {
        set_arcs(e.u, e.v, e.weight);
        set_arcs(e.v, e.u, e.weight);
      }
    }
    ds::graph::edge_list list(base.num_vertices());
    for (vertex_id u = 0; u < base.num_vertices(); ++u) {
      for (std::uint64_t a = offsets[u]; a < offsets[u + 1]; ++a) {
        list.add_edge(u, targets[a], weights[a]);
      }
    }
    graphs.emplace_back(list);
  }
  return graphs;
}

}  // namespace

run_output run_service_mixed(const options& opt, tracer& t) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  shared_inputs in;
  in.opt = &opt;
  // One core is left free (see cold_solo.cpp). On a 4-vCPU VM a fourth
  // client added no throughput, only queueing: p50 0.103 s vs 0.075 s at
  // the same ~38 queries/s.
  in.clients = std::clamp<std::size_t>(nproc - 1, 1, 3);

  // ---- set-up, repeated for a median: graph, seed inputs, service --------
  loaded_graph g;
  std::unique_ptr<ds::service::steiner_service> svc;
  std::vector<double> setup_times;
  const auto construct = [&] {
    span_scope s(t, "service.construct");
    svc = std::make_unique<ds::service::steiner_service>(
        ds::graph::csr_graph(g.graph), ds::service::service_config{});
  };
  for (int rep = 0; rep < k_setup_reps; ++rep) {
    svc.reset();
    g = {};
    const double t0 = now_seconds();
    g = load_graph("PTN", t);
    {
      span_scope s(t, "seed.select");
      in.component = ds::graph::largest_component_vertices(g.graph);
      in.hot_pool = ds::seed::select_seeds(g.graph, k_hot_pool,
                                           ds::seed::seed_strategy::bfs_level,
                                           mix_seed(opt.seed, 0x407ULL));
    }
    construct();
    setup_times.push_back(now_seconds() - t0);
  }
  in.g = &g;

  run_output out;
  std::vector<pass_output> passes;
  if (!opt.trace) {
    passes.push_back(run_pass(*svc, in, t, opt.seconds, 0, false));
    const pass_output& p = passes.back();
    out.metrics["peak_rss_mb"] = self_peak_rss_mb();
    std::vector<double> latencies;
    for (const query_record& r : p.records) {
      if (r.ok) latencies.push_back(r.latency);
    }
    out.metrics["setup_s"] = median(setup_times);
    out.metrics["query_p50_s"] = median(latencies);
    out.query_tail = tail(latencies);
    out.metrics["query_tail_s"] = out.query_tail.value;
    out.metrics["queries_per_s"] =
        static_cast<double>(latencies.size()) / p.wall;
    std::map<std::string, std::vector<double>> solve_by_kind;
    for (const query_record& r : p.records) {
      if (r.ok) solve_by_kind[ds::service::to_string(r.kind)].push_back(r.solve);
    }
    std::string mix = "path mix:";
    for (const auto& [kind, solves] : solve_by_kind) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %s %zu (solve p50 %.4f s)",
                    kind.c_str(), solves.size(), median(solves));
      mix += buf;
    }
    out.notes.push_back(mix + ", fragment-assisted cold " +
                        std::to_string(p.stats.fragment_assisted));
  } else {
    // Untraced and traced passes of a fixed session count, each on a fresh
    // service so every traced pass starts from the same empty cache.
    tracer off(false);
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<std::size_t> traced_passes;
    const double start = now_seconds();
    do {
      svc.reset();
      ds::service::steiner_service fresh(ds::graph::csr_graph(g.graph), {});
      passes.push_back(run_pass(fresh, in, off, 0.0, k_trace_sessions, false));
      for (const query_record& r : passes.back().records) {
        if (r.ok) untraced.push_back(r.latency);
      }
      construct();
      passes.push_back(run_pass(*svc, in, t, 0.0, k_trace_sessions, true));
      traced_passes.push_back(passes.size() - 1);
      for (const query_record& r : passes.back().records) {
        if (r.ok) traced.push_back(r.latency);
      }
    } while (now_seconds() - start < opt.seconds);

    core_counters core;
    std::vector<double> submit, queue_wait, cold, warm, cache, advance, scrape;
    double n = 0, hits = 0, warm_n = 0, rejected = 0;
    double coalesced = 0, fallbacks = 0, edge_warm = 0;
    double assisted = 0, cold_solves = 0, fragment_hits = 0, preseeded = 0;
    for (const std::size_t i : traced_passes) {
      const pass_output& p = passes[i];
      for (const query_record& r : p.records) {
        n += 1;
        if (r.rejected) rejected += 1;
        if (!r.ok) continue;
        submit.push_back(r.submit);
        queue_wait.push_back(r.queue_wait);
        switch (r.kind) {
          case ds::service::solve_kind::cold:
            cold.push_back(r.solve);
            core.add(r.result);
            break;
          case ds::service::solve_kind::warm_start:
            warm.push_back(r.solve);
            warm_n += 1;
            break;
          case ds::service::solve_kind::cache_hit:
            cache.push_back(r.latency);
            hits += 1;
            break;
          default:
            break;
        }
      }
      advance.insert(advance.end(), p.epoch_advance.begin(),
                     p.epoch_advance.end());
      scrape.insert(scrape.end(), p.scrape.begin(), p.scrape.end());
      coalesced += static_cast<double>(p.stats.coalesced);
      fallbacks += static_cast<double>(p.stats.warm_fallbacks);
      edge_warm += static_cast<double>(p.stats.edge_warm_solves);
      assisted += static_cast<double>(p.stats.fragment_assisted);
      cold_solves += static_cast<double>(p.stats.cold_solves);
      fragment_hits += static_cast<double>(p.stats.fragment_hits);
      preseeded += static_cast<double>(p.stats.preseeded_vertices);
    }
    const double per_pass = static_cast<double>(traced_passes.size());
    core.emit(out.metrics);
    out.metrics["service.submit_s"] = median(submit);
    out.metrics["service.queue_wait_p50_s"] = median(queue_wait);
    out.metrics["service.cold_solve_p50_s"] = median(cold);
    out.metrics["service.warm_solve_p50_s"] = median(warm);
    out.metrics["service.cache_hit_p50_s"] = median(cache);
    out.metrics["service.cache_hit_ratio"] = n > 0 ? hits / n : 0.0;
    out.metrics["service.warm_ratio"] = n > 0 ? warm_n / n : 0.0;
    out.metrics["service.coalesced"] = coalesced / per_pass;
    out.metrics["service.warm_fallbacks"] = fallbacks / per_pass;
    out.metrics["service.edge_warm_solves"] = edge_warm / per_pass;
    out.metrics["service.rejected"] = rejected / per_pass;
    out.metrics["epoch_advance_p50_s"] = median(advance);
    out.metrics["distshare.assisted_ratio"] =
        cold_solves > 0 ? assisted / cold_solves : 0.0;
    out.metrics["distshare.fragment_hits"] = fragment_hits / per_pass;
    out.metrics["distshare.preseeded_vertices"] = preseeded / per_pass;
    out.metrics["obs.metrics_render_s"] = median(scrape);
    emit_setup_metrics(t, out.metrics);
    const double base = median(untraced);
    out.metrics["obs.trace_overhead_ratio"] =
        base > 0.0 ? median(traced) / base : 0.0;
    out.query_tail = tail(traced);
  }
  svc.reset();

  // ---- correctness gate: cooperative references per (epoch, seed set) ----
  std::size_t epochs = 1;
  for (const pass_output& p : passes) {
    for (const query_record& r : p.records) {
      epochs = std::max(epochs, r.epoch_offset + 1);
    }
  }
  const std::vector<ds::graph::csr_graph> graphs = epoch_graphs(in, epochs);
  std::map<std::pair<std::size_t, seed_set>, std::size_t> job_of;
  std::vector<reference_job> jobs;
  for (const pass_output& p : passes) {
    for (const query_record& r : p.records) {
      if (!r.ok) continue;
      const auto key = std::make_pair(r.epoch_offset, r.seeds);
      if (job_of.emplace(key, jobs.size()).second) {
        jobs.push_back({&graphs[r.epoch_offset], r.seeds, 0, false});
      }
    }
  }
  compute_references(jobs, in.clients);
  std::size_t cache_hits = 0;
  std::size_t total = 0;
  for (const pass_output& p : passes) {
    out.failed += p.epoch_failures;  // a failed write fails the run
    for (const query_record& r : p.records) {
      ++out.attempted;
      ++total;
      if (!r.ok) {
        ++out.failed;
        continue;
      }
      if (r.kind == ds::service::solve_kind::cache_hit) ++cache_hits;
      const reference_job& ref = jobs[job_of.at({r.epoch_offset, r.seeds})];
      bool good = ref.ok && ref.digest == r.digest;
      if (good) {
        const auto check = ds::core::validate_steiner_tree(
            graphs[r.epoch_offset], r.seeds, r.tree);
        if (!check) {
          std::fprintf(stderr, "service-mixed: invalid tree: %s\n",
                       check.error.c_str());
          good = false;
        }
      } else {
        std::fprintf(stderr,
                     "service-mixed: %s tree differs from reference (epoch "
                     "+%zu, |S| = %zu)\n",
                     ds::service::to_string(r.kind), r.epoch_offset,
                     r.seeds.size());
      }
      if (!good) ++out.failed;
    }
  }

  out.env["clients"] = std::to_string(in.clients);
  out.env["workers"] = std::to_string(ds::service::executor_config{}.num_threads) +
                       " executor threads (default service_config)";
  out.env["engine"] = "cooperative (service default), cache + warm start + "
                      "fragment reuse on, service tracing as shipped";
  out.env["dataset"] = dataset_env(g);
  out.notes.push_back(setup_note(setup_times));
  out.notes.push_back(
      "service-mixed: " + std::to_string(total) + " queries from " +
      std::to_string(in.clients) + " clients over " + std::to_string(epochs) +
      " epochs, " + std::to_string(cache_hits) + " cache hits, " +
      std::to_string(jobs.size()) +
      " distinct (epoch, seed set) pairs checked against the cooperative "
      "engine");
  return out;
}

}  // namespace perfbench

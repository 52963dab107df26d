#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "graph/generators.hpp"
#include "runtime/perf_model.hpp"
#include "seed/seed_select.hpp"

namespace perfbench {

double now_seconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

// ---------------------------------------------------------------------------
// tracer

std::uint64_t tracer::next_id() {
  if (!enabled_) return 0;
  const std::lock_guard lock(mutex_);
  return next_id_++;
}

void tracer::record(span_record r) {
  if (!enabled_) return;
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(r));
}

std::size_t tracer::size() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<double> tracer::durations(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const span_record& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::map<std::string, double> tracer::self_seconds_by_layer() const {
  const std::lock_guard lock(mutex_);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const span_record& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> by_layer;
  for (const span_record& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double lo = -1.0;
      double hi = -1.0;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return by_layer;
}

void tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span_record& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                  "\"parent\":%llu,\"query\":%llu}}%s\n",
                  s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(), s.tid,
                  s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.query),
                  i + 1 == spans_.size() ? "" : ",");
    out << line;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

span_scope::span_scope(tracer& t, const char* name, std::uint64_t parent,
                       std::uint64_t query)
    : tracer_(t) {
  if (!t.enabled()) return;
  rec_.name = name;
  rec_.id = t.next_id();
  rec_.parent = parent;
  rec_.query = query;
  rec_.tid = thread_index();
  rec_.start = now_seconds();
}

span_scope::~span_scope() {
  if (!tracer_.enabled()) return;
  rec_.end = now_seconds();
  tracer_.record(std::move(rec_));
}

// ---------------------------------------------------------------------------
// statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

tail_stat tail(std::vector<double> values) {
  tail_stat t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  constexpr std::size_t k_beyond = 10;
  const std::size_t n = values.size();
  if (n <= k_beyond) {
    t.value = values.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = values[n - k_beyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - k_beyond) /
                 static_cast<double>(n);
  return t;
}

window_stat windowed(const std::vector<double>& latencies,
                     std::size_t window) {
  window_stat w;
  w.tail.samples = latencies.size();
  if (latencies.empty()) return w;
  window = std::clamp<std::size_t>(window, 1, latencies.size());
  const std::size_t beyond = window / 10;
  std::vector<double> tails;
  std::vector<double> rates;
  for (std::size_t at = 0; at + window <= latencies.size(); at += window) {
    std::vector<double> part(latencies.begin() + static_cast<long>(at),
                             latencies.begin() + static_cast<long>(at + window));
    std::sort(part.begin(), part.end());
    tails.push_back(part[window - beyond - 1]);
    const double busy = sum(part);
    rates.push_back(busy > 0.0 ? static_cast<double>(window) / busy : 0.0);
  }
  w.tail.value = median(tails);
  w.tail.percentile = 100.0 * static_cast<double>(window - beyond) /
                      static_cast<double>(window);
  w.tail.windows = tails.size();
  w.queries_per_s = median(rates);
  return w;
}

// ---------------------------------------------------------------------------
// correctness gate

std::uint64_t tree_digest(const ds::core::steiner_result& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(r.tree_edges.size());
  for (const auto& e : r.tree_edges) {
    mix(e.source);
    mix(e.target);
    mix(e.weight);
  }
  mix(r.total_distance);
  return h;
}

ds::core::solver_config reference_config() {
  // One simulated rank: a different partitioning from every measured
  // configuration, and the cheapest cooperative solve.
  ds::core::solver_config config;
  config.num_ranks = 1;
  return config;
}

std::string setup_note(const std::vector<double>& setup_times) {
  std::string note = "set-up repeats:";
  for (const double s : setup_times) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", s);
    note += buf;
  }
  return note + " s";
}

void compute_references(std::vector<reference_job>& jobs,
                        std::size_t threads) {
  std::atomic<std::size_t> next{0};
  const ds::core::solver_config config = reference_config();
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      reference_job& job = jobs[i];
      try {
        job.digest = tree_digest(
            ds::core::solve_steiner_tree(*job.graph, job.seeds, config));
        job.ok = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "reference solve failed: %s\n", e.what());
        job.ok = false;
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < std::max<std::size_t>(1, threads); ++i) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& th : pool) th.join();
}

// ---------------------------------------------------------------------------
// dataset set-up

loaded_graph load_graph(const std::string& key, tracer& t) {
  loaded_graph out{ds::io::spec_for(key), {}};
  ds::graph::edge_list edges;
  {
    span_scope s(t, "io.build_topology");
    edges = ds::io::build_topology(out.spec);
  }
  {
    // The same weighting io::load_dataset applies.
    span_scope s(t, "graph.assign_uniform_weights");
    ds::graph::assign_uniform_weights(edges, out.spec.weight_lo,
                                      out.spec.weight_hi,
                                      out.spec.rmat_seed ^ 0x5eedULL);
  }
  {
    span_scope s(t, "graph.csr_build");
    out.graph = ds::graph::csr_graph(edges);
  }
  return out;
}

std::vector<std::vector<ds::graph::vertex_id>> bfs_level_plan(
    const ds::graph::csr_graph& graph, std::size_t count, std::uint64_t seed,
    tracer& t) {
  constexpr std::size_t k_sizes[] = {16, 64, 256};
  span_scope s(t, "seed.select");
  std::vector<std::vector<ds::graph::vertex_id>> plan;
  for (std::size_t i = 0; i < count; ++i) {
    plan.push_back(ds::seed::select_seeds(graph, k_sizes[i % 3],
                                          ds::seed::seed_strategy::bfs_level,
                                          mix_seed(seed, i)));
  }
  return plan;
}

void emit_setup_metrics(const tracer& t, std::map<std::string, double>& out) {
  out["io.build_topology_s"] = median(t.durations("io.build_topology"));
  out["graph.csr_build_s"] = median(t.durations("graph.csr_build"));
  out["seed.select_s"] = median(t.durations("seed.select"));
  out["service.construct_s"] = median(t.durations("service.construct"));
  out["net.mesh_connect_s"] = median(t.durations("net.mesh_connect"));
}

std::string dataset_env(const loaded_graph& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s (RMAT scale %llu, edge factor %llu, weights %llu-%llu, "
                "rmat seed 0x%llx; %llu vertices, %llu arcs)",
                g.spec.key.c_str(),
                static_cast<unsigned long long>(g.spec.scale),
                static_cast<unsigned long long>(g.spec.edge_factor),
                static_cast<unsigned long long>(g.spec.weight_lo),
                static_cast<unsigned long long>(g.spec.weight_hi),
                static_cast<unsigned long long>(g.spec.rmat_seed),
                static_cast<unsigned long long>(g.graph.num_vertices()),
                static_cast<unsigned long long>(g.graph.num_arcs()));
  return buf;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// core counters

namespace {

struct phase_key {
  const char* phase;
  const char* key;
};

constexpr phase_key k_phases[] = {
    {ds::runtime::phase_names::voronoi, "voronoi"},
    {ds::runtime::phase_names::local_min_edge, "local_min_edge"},
    {ds::runtime::phase_names::global_min_edge, "global_min_edge"},
    {ds::runtime::phase_names::mst, "mst"},
    {ds::runtime::phase_names::pruning, "pruning"},
    {ds::runtime::phase_names::tree_edge, "tree_edge"},
};

}  // namespace

void core_counters::add(const ds::core::steiner_result& r) {
  const ds::runtime::cost_model costs{};
  for (const phase_key& p : k_phases) {
    const auto* m = r.phases.find(p.phase);
    const std::string prefix = std::string("core.") + p.key;
    per_query_[prefix + ".wall_s"].push_back(m ? m->wall_seconds : 0.0);
    per_query_[prefix + ".sim_s"].push_back(m ? m->sim_seconds(costs) : 0.0);
  }
  const ds::runtime::phase_metrics empty{};
  const auto* v = r.phases.find(ds::runtime::phase_names::voronoi);
  if (v == nullptr) v = &empty;
  const auto* l = r.phases.find(ds::runtime::phase_names::local_min_edge);
  if (l == nullptr) l = &empty;
  const auto* g = r.phases.find(ds::runtime::phase_names::global_min_edge);
  if (g == nullptr) g = &empty;
  per_query_["core.voronoi.visitors"].push_back(
      static_cast<double>(v->visitors_processed));
  per_query_["core.voronoi.rounds"].push_back(static_cast<double>(v->rounds));
  per_query_["core.voronoi.messages_remote"].push_back(
      static_cast<double>(v->messages_remote));
  per_query_["core.local_min_edge.messages"].push_back(
      static_cast<double>(l->messages_total()));
  per_query_["core.global_min_edge.collective_bytes"].push_back(
      static_cast<double>(g->collective_bytes));
  per_query_["core.distance_graph_edges"].push_back(
      static_cast<double>(r.distance_graph_edges));
  per_query_["core.queue_peak_bytes"].push_back(
      static_cast<double>(r.phases.total().queue_peak_bytes));
  processed_ += static_cast<double>(v->visitors_processed);
  attempted_ += static_cast<double>(v->visitors_processed +
                                    v->visitors_skipped +
                                    v->previsit_rejections);
}

void core_counters::emit(std::map<std::string, double>& out) const {
  for (const auto& [name, values] : per_query_) out[name] = median(values);
  out["core.voronoi.useful_ratio"] =
      attempted_ > 0.0 ? processed_ / attempted_ : 0.0;
}

// ---------------------------------------------------------------------------
// metric definitions

const std::vector<metric_def>& end_to_end_metrics() {
  static const std::vector<metric_def> defs = {
      {"setup_s", "s"},
      {"query_p50_s", "s"},
      {"query_tail_s", "s"},
      {"queries_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<metric_def>& per_layer_metrics() {
  static const std::vector<metric_def> defs = {
      // set-up path -> setup_s
      {"io.build_topology_s", "s"},
      {"graph.csr_build_s", "s"},
      {"seed.select_s", "s"},
      {"service.construct_s", "s"},
      {"net.mesh_connect_s", "s"},
      // core, from steiner_result::phases -> query_p50_s / query_tail_s
      {"core.voronoi.wall_s", "s"},
      {"core.voronoi.sim_s", "s"},
      {"core.local_min_edge.wall_s", "s"},
      {"core.local_min_edge.sim_s", "s"},
      {"core.global_min_edge.wall_s", "s"},
      {"core.global_min_edge.sim_s", "s"},
      {"core.mst.wall_s", "s"},
      {"core.mst.sim_s", "s"},
      {"core.pruning.wall_s", "s"},
      {"core.pruning.sim_s", "s"},
      {"core.tree_edge.wall_s", "s"},
      {"core.tree_edge.sim_s", "s"},
      {"core.voronoi.visitors", "count"},
      {"core.voronoi.rounds", "count"},
      {"core.voronoi.messages_remote", "count"},
      {"core.voronoi.useful_ratio", "ratio"},
      {"core.local_min_edge.messages", "count"},
      {"core.global_min_edge.collective_bytes", "bytes"},
      {"core.distance_graph_edges", "count"},
      {"core.queue_peak_bytes", "bytes"},
      // runtime/parallel, from the engine probe -> query_p50_s on cold-solo
      {"parallel.compute_s", "s"},
      {"parallel.barrier_wait_s", "s"},
      {"parallel.barrier_wait_fraction", "ratio"},
      {"parallel.supersteps", "count"},
      {"parallel.compute_skew_mean", "ratio"},
      {"parallel.compute_skew_max", "ratio"},
      // runtime/net -> query_p50_s on dist-tcp
      {"net.bytes_per_query", "bytes"},
      {"net.frames_per_query", "count"},
      {"net.supersteps_per_query", "count"},
      {"net.vote_rounds_per_query", "count"},
      {"net.ghost_labels_per_query", "count"},
      {"net.overhead_ratio", "ratio"},
      {"net.compute_s", "s"},
      {"net.recv_wait_s", "s"},
      {"net.comm_wait_fraction", "ratio"},
      {"net.compute_skew_max", "ratio"},
      // service -> queries_per_s / query_tail_s on service-mixed
      {"service.submit_s", "s"},
      {"service.queue_wait_p50_s", "s"},
      {"service.cold_solve_p50_s", "s"},
      {"service.warm_solve_p50_s", "s"},
      {"service.cache_hit_p50_s", "s"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.warm_ratio", "ratio"},
      {"service.coalesced", "count"},
      {"service.warm_fallbacks", "count"},
      {"service.edge_warm_solves", "count"},
      {"service.rejected", "count"},
      {"epoch_advance_p50_s", "s"},
      // service/distshare -> query_p50_s on service-mixed
      {"distshare.assisted_ratio", "ratio"},
      {"distshare.fragment_hits", "count"},
      {"distshare.preseeded_vertices", "count"},
      // obs
      {"obs.metrics_render_s", "s"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return defs;
}

}  // namespace perfbench

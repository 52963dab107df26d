// cold-solo: one client runs core::solve_steiner_tree back to back on the
// UKW mirror with the threaded engine (runtime/parallel), |S| cycling
// {16, 64, 256}, over a fixed plan of BFS-level seed sets.
#include <algorithm>
#include <map>
#include <thread>

#include "common.hpp"
#include "core/validation.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

/// Visitors a rank drains per superstep. The solver default (64) costs the
/// UKW solve ~1600 supersteps, each two condition-variable barrier waits,
/// and on a shared VM the solve slowed up to 7x whenever the host was
/// contended; at 1024 it runs ~100 supersteps, is as fast on a quiet host,
/// and contention moves it far less. At 4096 it runs ~40 supersteps and is
/// another ~20% faster on 4 workers, with fewer barriers for a descheduled
/// worker to hold up. Strict order keeps every count exact.
constexpr std::size_t k_batch_size = 4096;
/// Queries per window for query_tail_s and queries_per_s (see windowed()):
/// four of each |S| while the plan cycles the sizes.
constexpr std::size_t k_window = 12;
/// Seed sets a trace pass runs (three of each size).
constexpr std::size_t k_trace_plan = 9;
/// Seed sets a measured run cycles through (16 of each size). The core
/// solver keeps nothing between calls, so a repeated set costs the same
/// work; a fixed count keeps set-up and the reference gate independent of
/// --seconds.
constexpr std::size_t k_plan = 48;

struct query_record {
  std::size_t plan_index = 0;
  bool ok = false;
  std::uint64_t digest = 0;
  std::vector<ds::graph::weighted_edge> tree;
};

/// Engine-probe rollup for one traced solve (threaded engine only writes
/// per-worker aggregate rows with rank == -1).
struct probe_rollup {
  double compute = 0.0;
  double wait = 0.0;
  double supersteps = 0.0;
  double skew_mean = 0.0;
  double skew_max = 0.0;
};

probe_rollup rollup(const ds::obs::engine_probe& probe) {
  probe_rollup r;
  // (phase, superstep) -> per-worker compute seconds
  std::map<std::pair<const char*, std::uint32_t>, std::vector<double>> steps;
  for (std::size_t lane = 0; lane < probe.lanes(); ++lane) {
    for (const auto& s : probe.lane_samples(lane)) {
      if (s.rank != -1) continue;
      r.compute += s.compute_seconds;
      r.wait += s.barrier_wait_seconds;
      steps[{s.phase, s.superstep}].push_back(s.compute_seconds);
    }
  }
  r.supersteps = static_cast<double>(steps.size());
  double skew_sum = 0.0;
  std::size_t counted = 0;
  for (const auto& [key, compute] : steps) {
    const double mean = sum(compute) / static_cast<double>(compute.size());
    if (mean <= 0.0) continue;
    const double skew = *std::max_element(compute.begin(), compute.end()) / mean;
    skew_sum += skew;
    r.skew_max = std::max(r.skew_max, skew);
    ++counted;
  }
  r.skew_mean = counted == 0 ? 0.0 : skew_sum / static_cast<double>(counted);
  return r;
}

}  // namespace

run_output run_cold_solo(const options& opt, tracer& t) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // One core is left free: every superstep waits for the slowest worker, so
  // with a worker on every vCPU any other process on the box stalls the
  // whole solve. On a 4-vCPU VM with one other busy process, 4 workers ran
  // 54% slower than on a quiet box and 3 workers 8% slower.
  const std::size_t workers = std::clamp<std::size_t>(nproc - 1, 1, 3);
  const std::size_t plan_size = opt.trace ? k_trace_plan : k_plan;

  // ---- set-up, repeated for a median: graph, CSR, seed sets ---------------
  loaded_graph g;
  std::vector<std::vector<ds::graph::vertex_id>> plan;
  std::vector<double> setup_times;
  for (int rep = 0; rep < k_setup_reps; ++rep) {
    g = {};  // free the previous repeat's inputs before building new ones
    plan = {};
    const double t0 = now_seconds();
    g = load_graph("UKW", t);
    plan = bfs_level_plan(g.graph, plan_size, opt.seed, t);
    setup_times.push_back(now_seconds() - t0);
  }

  ds::core::solver_config config;
  config.mode = ds::runtime::execution_mode::parallel_threads;
  config.num_threads = workers;
  config.growth = ds::runtime::growth_mode::strict_order;
  config.batch_size = k_batch_size;

  std::vector<query_record> records;
  const auto solve = [&](std::size_t index, ds::core::solver_config cfg,
                         std::vector<double>& latencies,
                         ds::core::steiner_result* keep) {
    query_record rec;
    rec.plan_index = index;
    const double q0 = now_seconds();
    try {
      ds::core::steiner_result r =
          ds::core::solve_steiner_tree(g.graph, plan[index], cfg);
      latencies.push_back(now_seconds() - q0);
      rec.ok = true;
      rec.digest = tree_digest(r);
      rec.tree = r.tree_edges;
      if (keep != nullptr) *keep = std::move(r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cold-solo query %zu failed: %s\n", index, e.what());
    }
    records.push_back(std::move(rec));
  };

  run_output out;
  if (!opt.trace) {
    std::vector<double> latencies;
    const double start = now_seconds();
    double end = start;
    for (std::size_t i = 0; end - start < opt.seconds; ++i) {
      solve(i % plan.size(), config, latencies, nullptr);
      end = now_seconds();
    }
    out.metrics["peak_rss_mb"] = self_peak_rss_mb();
    out.metrics["setup_s"] = median(setup_times);
    out.metrics["query_p50_s"] = median(latencies);
    const window_stat w = windowed(latencies, k_window);
    out.query_tail = w.tail;
    out.metrics["query_tail_s"] = w.tail.value;
    out.metrics["queries_per_s"] = w.queries_per_s;
  } else {
    // Alternate an untraced and a traced pass over the same fixed plan until
    // the time is used, so per-layer counts repeat exactly per seed and the
    // overhead ratio compares identical queries.
    std::vector<double> untraced;
    std::vector<double> traced;
    core_counters core;
    std::vector<probe_rollup> probes;
    ds::obs::trace_config trace_cfg;
    trace_cfg.samples_per_lane = 1 << 20;
    const double start = now_seconds();
    std::uint64_t query_id = 0;
    do {
      for (std::size_t i = 0; i < plan.size(); ++i) {
        solve(i, config, untraced, nullptr);
      }
      for (std::size_t i = 0; i < plan.size(); ++i) {
        ds::obs::query_trace qt(trace_cfg, workers);
        ds::core::solver_config cfg = config;
        cfg.trace = &qt;
        ds::core::steiner_result r;
        {
          span_scope root(t, "bench.query", 0, ++query_id);
          span_scope call(t, "core.solve_steiner_tree", root.id(), query_id);
          solve(i, cfg, traced, &r);
        }
        if (records.back().ok) {
          core.add(r);
          probes.push_back(rollup(qt.probe()));
        }
      }
    } while (now_seconds() - start < opt.seconds);

    core.emit(out.metrics);
    std::vector<double> compute, wait, steps, skew_mean, skew_max;
    for (const probe_rollup& p : probes) {
      compute.push_back(p.compute);
      wait.push_back(p.wait);
      steps.push_back(p.supersteps);
      skew_mean.push_back(p.skew_mean);
      skew_max.push_back(p.skew_max);
    }
    out.metrics["parallel.compute_s"] = median(compute);
    out.metrics["parallel.barrier_wait_s"] = median(wait);
    const double busy = sum(compute) + sum(wait);
    out.metrics["parallel.barrier_wait_fraction"] =
        busy > 0.0 ? sum(wait) / busy : 0.0;
    out.metrics["parallel.supersteps"] = median(steps);
    out.metrics["parallel.compute_skew_mean"] = median(skew_mean);
    out.metrics["parallel.compute_skew_max"] = median(skew_max);
    emit_setup_metrics(t, out.metrics);
    const double base = median(untraced);
    out.metrics["obs.trace_overhead_ratio"] =
        base > 0.0 ? median(traced) / base : 0.0;
    out.query_tail = tail(traced);
  }

  // ---- correctness gate, outside every timed region ------------------------
  std::vector<bool> used(plan.size(), false);
  for (const query_record& rec : records) used[rec.plan_index] = true;
  std::vector<reference_job> needed;
  std::vector<std::size_t> job_of(plan.size(), 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!used[i]) continue;
    job_of[i] = needed.size();
    needed.push_back({&g.graph, plan[i], 0, false});
  }
  compute_references(needed, workers);
  for (const query_record& rec : records) {
    ++out.attempted;
    const reference_job& ref = needed[job_of[rec.plan_index]];
    bool good = rec.ok && ref.ok && rec.digest == ref.digest;
    if (good) {
      const auto check = ds::core::validate_steiner_tree(
          g.graph, plan[rec.plan_index], rec.tree);
      if (!check) {
        std::fprintf(stderr, "cold-solo: invalid tree: %s\n",
                     check.error.c_str());
        good = false;
      }
    } else if (rec.ok) {
      std::fprintf(stderr, "cold-solo: tree differs from reference (set %zu)\n",
                   rec.plan_index);
    }
    if (!good) ++out.failed;
  }

  out.env["workers"] = std::to_string(workers);
  out.env["engine"] = "parallel_threads, strict growth, 16 simulated ranks, "
                      "batch " + std::to_string(k_batch_size);
  out.env["clients"] = "1";
  out.env["dataset"] = dataset_env(g);
  out.notes.push_back(setup_note(setup_times));
  out.env["seed_sets"] = std::to_string(plan.size());
  out.notes.push_back("cold-solo: " + std::to_string(records.size()) +
                      " solves on " + g.spec.key + " with " +
                      std::to_string(workers) + " threaded workers, " +
                      std::to_string(needed.size()) +
                      " distinct seed sets checked against the cooperative "
                      "engine");
  return out;
}

}  // namespace perfbench

// bench_parallel_engine — single-cold-solve scaling of the threaded runtime
// (src/runtime/parallel/), beyond the paper's simulated-rank experiments.
//
// The cooperative engine runs all simulated ranks on one thread, so a cold
// solve's *wall* time never benefits from extra cores; the threaded engine
// gives every rank a real worker. This bench measures one cold solve of the
// LVJ mirror (the largest bundled dataset) end to end:
//
//   1. sequential baseline (execution_mode::async, the default engine);
//   2. parallel_threads at 1, 2, 4, ... workers (up to --threads N or
//      hardware concurrency), reporting wall time and speedup vs both the
//      sequential engine and the 1-worker threaded run;
//   3. an output-identity check: every configuration must produce the exact
//      tree of the sequential baseline (the determinism guarantee the
//      service cache depends on).
//
// Reported speedups depend on the physical cores available to this process:
// on a multi-core host expect >= 2x at 4 workers for the solver phases the
// threaded engine runs (Voronoi, the local-min-edge scan and tree-edge
// dominate LVJ solves).
// The phase-1-heavy batch size (1024) amortises the two superstep barriers.
#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace dsteiner;
  const std::size_t max_threads_flag = bench::parse_threads_flag(argc, argv);
  bench::print_header(
      "Parallel engine: single cold solve scaling with worker threads",
      "the threaded-runtime extension (beyond the paper's simulated ranks)",
      "One LVJ-mini cold solve per row; identical output is asserted.\n"
      "Pass --threads N to extend the sweep beyond hardware concurrency.");

  const auto ds = io::load_dataset("LVJ");
  const auto seeds = bench::default_seeds(ds.graph, 100);
  std::printf("dataset: %s mirror, %llu vertices, %llu arcs, |S|=%zu\n",
              ds.spec.paper_name.c_str(),
              static_cast<unsigned long long>(ds.graph.num_vertices()),
              static_cast<unsigned long long>(ds.graph.num_arcs()),
              seeds.size());
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads: %zu\n\n", hw);

  core::solver_config base;
  base.num_ranks = 16;
  base.batch_size = 1024;  // amortise superstep barriers in threaded runs

  // Sequential-engine baseline.
  util::timer seq_wall;
  const auto reference = core::solve_steiner_tree(ds.graph, seeds, base);
  const double seq_seconds = seq_wall.seconds();

  std::size_t max_threads = std::max<std::size_t>(max_threads_flag, hw);
  max_threads = std::min<std::size_t>(
      max_threads, static_cast<std::size_t>(base.num_ranks));

  util::table table({"engine", "threads", "wall", "vs sequential",
                     "vs 1-thread", "identical"});
  table.add_row({"cooperative", "-", util::format_duration(seq_seconds),
                 "1.00x", "-", "ref"});
  double one_thread_seconds = 0.0;
  bool all_identical = true;
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    core::solver_config config = base;
    config.mode = runtime::execution_mode::parallel_threads;
    config.num_threads = threads;
    util::timer wall;
    const auto result = core::solve_steiner_tree(ds.graph, seeds, config);
    const double seconds = wall.seconds();
    if (threads == 1) one_thread_seconds = seconds;
    const bool identical = result.tree_edges == reference.tree_edges &&
                           result.total_distance == reference.total_distance;
    all_identical = all_identical && identical;
    table.add_row({"threaded", std::to_string(threads),
                   util::format_duration(seconds),
                   util::format_fixed(seq_seconds / seconds, 2) + "x",
                   util::format_fixed(one_thread_seconds / seconds, 2) + "x",
                   identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  // ---- per-superstep skew (engine probe) -----------------------------------
  // One traced solve at the widest worker count: every worker records one
  // aggregate sample per superstep (compute + barrier wait), so the skew
  // ratio max/mean compute per superstep shows how evenly rank striping
  // balances the load — the barrier charges every superstep its slowest
  // worker. Tracing is pure observation; the traced tree is asserted
  // identical below like every other configuration.
  {
    core::solver_config config = base;
    config.mode = runtime::execution_mode::parallel_threads;
    config.num_threads = max_threads;
    obs::trace_config trace_cfg;
    obs::query_trace trace(trace_cfg, max_threads);
    config.trace = &trace;
    const auto traced = core::solve_steiner_tree(ds.graph, seeds, config);
    all_identical = all_identical && traced.tree_edges == reference.tree_edges;

    // (phase, superstep) -> per-worker compute seconds.
    std::map<std::pair<std::string, std::uint32_t>, std::vector<double>> steps;
    std::map<std::pair<std::string, std::uint32_t>, double> barrier;
    for (std::size_t lane = 0; lane < trace.probe().lanes(); ++lane) {
      for (const obs::superstep_sample& s : trace.probe().lane_samples(lane)) {
        if (s.rank >= 0) continue;  // per-rank detail rows
        const auto key = std::make_pair(std::string(s.phase), s.superstep);
        steps[key].push_back(s.compute_seconds);
        barrier[key] += s.barrier_wait_seconds;
      }
    }
    double skew_sum = 0.0, skew_max = 0.0;
    std::size_t counted = 0;
    util::table skew_table(
        {"phase", "superstep", "workers", "max compute", "skew", "barrier"});
    for (const auto& [key, computes] : steps) {
      double total = 0.0, worst = 0.0;
      for (const double c : computes) {
        total += c;
        worst = std::max(worst, c);
      }
      const double mean = total / static_cast<double>(computes.size());
      const double skew = mean > 0.0 ? worst / mean : 1.0;
      skew_sum += skew;
      skew_max = std::max(skew_max, skew);
      ++counted;
      // Print the early supersteps of each phase — the frontier-growth part
      // where imbalance actually bites; the tail rounds are near-empty.
      if (key.second < 4) {
        skew_table.add_row({key.first, std::to_string(key.second),
                            std::to_string(computes.size()),
                            util::format_duration(worst),
                            util::format_fixed(skew, 2) + "x",
                            util::format_duration(barrier[key])});
      }
    }
    std::printf("-- per-superstep skew (threads=%zu, first 4 supersteps) --\n",
                max_threads);
    std::printf("%s", skew_table.render().c_str());
    if (counted > 0) {
      std::printf(
          "supersteps sampled: %zu (probe samples %zu, dropped %llu); "
          "compute skew mean %.2fx, worst %.2fx\n\n",
          counted, trace.probe().total_samples(),
          static_cast<unsigned long long>(trace.probe().dropped()),
          skew_sum / static_cast<double>(counted), skew_max);
    }
  }

  std::printf("output identical across all configurations: %s\n",
              all_identical ? "yes" : "NO — determinism violated");
  std::printf(
      "Shape check: \"vs 1-thread\" is the intra-solve scaling curve; on a\n"
      "multi-core host it should approach the worker count for the\n"
      "visitor-dominated phases (expect >= 2x at 4 workers). \"vs\n"
      "sequential\" additionally absorbs the superstep scheduling overhead\n"
      "the cooperative engine does not pay.\n");
  return all_identical ? 0 : 1;
}

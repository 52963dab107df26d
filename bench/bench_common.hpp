// Shared helpers for the benchmark harnesses. Every bench binary regenerates
// one of the paper's tables/figures: it loads the synthetic mirror datasets,
// selects seeds with the paper's BFS-level methodology, runs the solver, and
// prints the same rows/series the paper reports.
//
// Reported times: "sim" columns are simulated parallel seconds from the cost
// model in runtime/perf_model.hpp (critical-path work across the simulated
// ranks); "wall" columns are single-core wall clock of the whole simulation.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/steiner_solver.hpp"
#include "io/dataset.hpp"
#include "runtime/perf_model.hpp"
#include "seed/seed_select.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace dsteiner::bench {

/// Shared bench CLI parsing. Each binary declares its flags through the
/// accessors below (in any order on the command line), then calls finish(),
/// which aborts with a usage line naming every declared flag if an argument
/// went unrecognised. Values are validated strictly — a malformed value
/// exits with status 2, the same contract the benches previously each
/// hand-rolled around strtoull.
class flag_parser {
 public:
  flag_parser(int argc, char** argv)
      : program_(argc > 0 ? argv[0] : "bench"),
        args_(argv + (argc > 0 ? 1 : 0), argv + argc),
        used_(args_.size(), false) {}

  /// `--name N` with N >= 1; `fallback` when the flag is absent.
  std::size_t positive_uint(const char* name, std::size_t fallback) {
    usage_ += std::string(" [") + name + " N]";
    const char* text = value_of(name);
    if (text == nullptr) return fallback;
    char* end = nullptr;
    // strtoull wraps negatives into huge values; reject them up front.
    const unsigned long long value =
        text[0] == '-' ? 0 : std::strtoull(text, &end, 10);
    if (end == nullptr || *end != '\0' || value == 0) {
      std::fprintf(stderr, "%s: %s expects a positive integer\n", program_,
                   name);
      std::exit(2);
    }
    return static_cast<std::size_t>(value);
  }

  /// Call after every flag is declared: any argument no accessor consumed is
  /// unknown, and aborts with the accumulated usage line.
  void finish() const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i]) {
        std::fprintf(stderr, "usage: %s%s\n", program_, usage_.c_str());
        std::exit(2);
      }
    }
  }

 private:
  /// Finds `--name value`, marking both tokens consumed. A trailing flag
  /// with no value is malformed, not unknown, so it errors here.
  const char* value_of(const char* name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (std::strcmp(args_[i], name) != 0) continue;
      if (i + 1 >= args_.size()) {
        std::fprintf(stderr, "%s: %s expects a value\n", program_, name);
        std::exit(2);
      }
      used_[i] = used_[i + 1] = true;
      return args_[i + 1];
    }
    return nullptr;
  }

  const char* program_;
  std::vector<char*> args_;
  std::vector<bool> used_;
  std::string usage_;
};

/// Strict `--threads N` flag shared by the engine benches: 0 (flag absent)
/// keeps the cooperative single-thread engine; N >= 1 switches the solver to
/// execution_mode::parallel_threads with N engine workers, making scaling
/// curves reproducible from the CLI. Unknown arguments abort with usage.
inline std::size_t parse_threads_flag(int argc, char** argv) {
  flag_parser flags(argc, argv);
  const std::size_t threads = flags.positive_uint("--threads", 0);
  flags.finish();
  return threads;
}

/// Applies a --threads value to a solver config (no-op for 0).
inline void apply_threads(core::solver_config& config, std::size_t threads) {
  if (threads == 0) return;
  config.mode = runtime::execution_mode::parallel_threads;
  config.num_threads = threads;
}

/// The paper's canonical phase order (chart legends of Figs. 3-6).
inline const std::vector<std::string>& phase_order() {
  static const std::vector<std::string> order = {
      runtime::phase_names::voronoi,        runtime::phase_names::local_min_edge,
      runtime::phase_names::global_min_edge, runtime::phase_names::mst,
      runtime::phase_names::pruning,         runtime::phase_names::tree_edge,
  };
  return order;
}

/// Short column labels for the same phases.
inline const std::vector<std::string>& phase_labels() {
  static const std::vector<std::string> labels = {
      "Voronoi", "LocalMinE", "GlobalMinE", "MST", "Pruning", "TreeEdge"};
  return labels;
}

inline void print_header(const char* experiment, const char* paper_ref,
                         const char* note) {
  std::printf("==============================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_ref);
  if (note != nullptr && note[0] != '\0') std::printf("%s\n", note);
  std::printf("==============================================================\n\n");
}

/// Per-phase simulated seconds of a result, in phase_order().
inline std::vector<double> phase_sim_seconds(const core::steiner_result& result,
                                             const runtime::cost_model& costs) {
  std::vector<double> seconds;
  for (const auto& name : phase_order()) {
    const auto* metrics = result.phases.find(name);
    seconds.push_back(metrics != nullptr ? metrics->sim_seconds(costs) : 0.0);
  }
  return seconds;
}

/// Per-phase message counts, in phase_order().
inline std::vector<std::uint64_t> phase_messages(
    const core::steiner_result& result) {
  std::vector<std::uint64_t> messages;
  for (const auto& name : phase_order()) {
    const auto* metrics = result.phases.find(name);
    messages.push_back(metrics != nullptr ? metrics->messages_total() : 0);
  }
  return messages;
}

/// BFS-level seeds (the paper's default methodology), deterministic per
/// dataset+count.
inline std::vector<graph::vertex_id> default_seeds(const graph::csr_graph& g,
                                                   std::size_t count,
                                                   std::uint64_t salt = 0) {
  return seed::select_seeds(g, count, seed::seed_strategy::bfs_level,
                            0xbeef + salt);
}

}  // namespace dsteiner::bench

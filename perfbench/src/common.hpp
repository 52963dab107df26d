// Shared plumbing for the perfbench workloads: options, the span tracer,
// sample statistics, tree digests, the reference gate and the result record.
//
// Everything here sits outside the library: the benchmark only calls the
// library's public API and times those calls from the outside.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "io/dataset.hpp"

namespace perfbench {

namespace ds = dsteiner;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace JSON path (trace runs only)
  std::string git_sha = "unknown";
};

/// Seconds on the monotonic clock since an arbitrary process-wide origin.
[[nodiscard]] double now_seconds();

/// Derives an independent 64-bit stream seed from (workload seed, index).
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// How many times each workload repeats its set-up to report a median.
inline constexpr int k_setup_reps = 5;

// ---------------------------------------------------------------------------
// Span tracer: one record per layer call made by the benchmark, kept in
// memory and written as a Chrome trace at exit. Disabled tracers record
// nothing and hand out span id 0.

struct span_record {
  std::string name;  ///< "<layer>.<call>", e.g. "core.solve_steiner_tree"
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t query = 0;   ///< 0 = not part of a query
  int tid = 0;
};

class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t next_id();
  void record(span_record r);

  /// Self time per layer (the text before the first '.'): each span's
  /// duration minus the union of its direct children's intervals.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  [[nodiscard]] std::size_t size() const;
  /// Durations of every recorded span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes {"traceEvents": [...]} loadable by Perfetto / chrome://tracing.
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<span_record> spans_;
};

/// Small per-thread id for the Chrome trace's tid field.
[[nodiscard]] int thread_index();

/// RAII span around one layer call. Cheap no-op when the tracer is off.
class span_scope {
 public:
  span_scope(tracer& t, const char* name, std::uint64_t parent = 0,
             std::uint64_t query = 0);
  ~span_scope();
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

 private:
  tracer& tracer_;
  span_record rec_;
};

// ---------------------------------------------------------------------------
// Sample statistics.

[[nodiscard]] double median(std::vector<double> values);
/// Sum of values (0 for none).
[[nodiscard]] double sum(const std::vector<double>& values);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. With fewer than 11 samples, the largest.
struct tail_stat {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
  std::size_t windows = 0;  ///< 0: over the whole run; else see windowed()
};
[[nodiscard]] tail_stat tail(std::vector<double> values);

/// Statistics over consecutive windows of `window` latencies from one
/// sequential client, in issue order (a trailing partial window is dropped):
/// the median over the windows of each window's p90, and of its throughput,
/// `window` / summed latency. A burst of host contention that covers fewer
/// than half the windows moves neither. With no full window, the whole run
/// is one window.
struct window_stat {
  tail_stat tail;
  double queries_per_s = 0.0;
};
[[nodiscard]] window_stat windowed(const std::vector<double>& latencies,
                                   std::size_t window);

// ---------------------------------------------------------------------------
// Correctness gate.

/// 64-bit FNV-1a digest over a tree's canonical edge list and D(GS).
[[nodiscard]] std::uint64_t tree_digest(const ds::core::steiner_result& r);

/// Cooperative-engine reference digests for `jobs` (graph, seed set) pairs,
/// computed on `threads` threads outside any timed region.
struct reference_job {
  const ds::graph::csr_graph* graph = nullptr;
  std::vector<ds::graph::vertex_id> seeds;
  std::uint64_t digest = 0;  ///< output
  bool ok = false;           ///< output: the reference solve succeeded
};
void compute_references(std::vector<reference_job>& jobs, std::size_t threads);

/// The reference configuration: the cooperative engine on one rank.
[[nodiscard]] ds::core::solver_config reference_config();

// ---------------------------------------------------------------------------
// Dataset set-up, shared by every workload: topology, weights, CSR.

struct loaded_graph {
  ds::io::dataset_spec spec;
  ds::graph::csr_graph graph;
};
[[nodiscard]] loaded_graph load_graph(const std::string& key, tracer& t);

/// `count` BFS-level seed sets with |S| cycling {16, 64, 256}, deterministic
/// in the workload seed (one "seed.select" span).
[[nodiscard]] std::vector<std::vector<ds::graph::vertex_id>> bfs_level_plan(
    const ds::graph::csr_graph& graph, std::size_t count, std::uint64_t seed,
    tracer& t);

/// Median set-up call times from the tracer's spans into the per-layer
/// set-up metrics (0 for calls the workload does not make).
void emit_setup_metrics(const tracer& t, std::map<std::string, double>& out);

// ---------------------------------------------------------------------------
// Per-query core counters from steiner_result::phases, folded into the
// per-layer core.* metrics.

class core_counters {
 public:
  void add(const ds::core::steiner_result& r);
  void emit(std::map<std::string, double>& out) const;

 private:
  std::map<std::string, std::vector<double>> per_query_;
  double processed_ = 0.0;
  double attempted_ = 0.0;
};

// ---------------------------------------------------------------------------
// Results.

struct metric_def {
  const char* name;
  const char* unit;
};
/// Every per-layer metric, in BENCHMARK.json order. Trace runs print all of
/// them; a layer a workload does not exercise reads 0.
[[nodiscard]] const std::vector<metric_def>& per_layer_metrics();
[[nodiscard]] const std::vector<metric_def>& end_to_end_metrics();

struct run_output {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< by name; unit from the defs
  tail_stat query_tail;
  /// Environment fields beyond the common ones (workers, ranks, clients...).
  std::map<std::string, std::string> env;
  std::vector<std::string> notes;  ///< human-readable lines
};

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// "set-up repeats: a b c s" for the human-readable report.
[[nodiscard]] std::string setup_note(const std::vector<double>& setup_times);

/// Dataset description for the environment record.
[[nodiscard]] std::string dataset_env(const loaded_graph& g);

run_output run_cold_solo(const options& opt, tracer& t);
run_output run_dist_tcp(const options& opt, tracer& t);
run_output run_service_mixed(const options& opt, tracer& t);

}  // namespace perfbench

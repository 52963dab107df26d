// dsteiner_rank — per-process launcher for the real multi-process distributed
// runtime (src/runtime/net/). Each rank is its own OS process owning one
// hash-partition shard of the solve state; ranks connect a localhost TCP mesh
// and run the distributed solver to the same bits the single-process solver
// produces.
//
// Two ways to run it:
//
//   # one command, forks the whole mesh (rank 0 stays in the foreground):
//   dsteiner_rank --spawn 4 --rmat 9 --num-seeds 8 --verify-single
//
//   # or one process per rank, e.g. across terminals / a process manager:
//   dsteiner_rank --rank 0 --world 2 --dataset LVJ --num-seeds 16
//   dsteiner_rank --rank 1 --world 2 --dataset LVJ --num-seeds 16
//
// Every rank must be given the same graph/seed/port flags: the graph is
// loaded deterministically per process, the seed selection is deterministic,
// and only the vertex-state shard differs by rank.
//
// Options:
//   --spawn W            fork ranks 1..W-1, run rank 0 in this process
//   --rank R --world W   join an externally-launched mesh as rank R
//   --port-base P        TCP mesh base port (rank r listens on P+r)
//   --dataset KEY        built-in mirror (WDC CLW UKW FRS LVJ PTN MCO CTS)
//   --rmat SCALE         deterministic RMAT graph, 2^SCALE vertices
//   --edge-factor N      RMAT edge factor (default 8)
//   --seeds a,b,c        explicit seed vertices
//   --num-seeds N        deterministic seed selection (default 8)
//   --verify-single      also run the in-process solver and require
//                        bit-identical output (exit 1 on mismatch)
//   --metrics-text       print this rank's dsteiner_net_* counters (plus, on
//                        rank 0, the dsteiner_cluster_* families) as
//                        Prometheus text exposition (self-validated)
//   --clusterz           rank 0: print the merged cluster telemetry JSON
//                        (straggler report) — the same document the query
//                        service serves at /clusterz
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/generators.hpp"
#include "io/dataset.hpp"
#include "obs/prom_text.hpp"
#include "obs/prom_validate.hpp"
#include "runtime/net/dist_solver.hpp"
#include "runtime/net/tcp_backend.hpp"
#include "seed/seed_select.hpp"
#include "util/timer.hpp"

namespace {

using namespace dsteiner;

[[noreturn]] void usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n", message);
  std::fprintf(stderr,
               "usage: dsteiner_rank (--spawn W | --rank R --world W)\n"
               "                     [--port-base P]\n"
               "                     (--dataset KEY | --rmat SCALE"
               " [--edge-factor N])\n"
               "                     [--seeds a,b,c | --num-seeds N]\n"
               "                     [--verify-single] [--metrics-text]\n"
               "                     [--clusterz]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || text.empty()) {
    usage((std::string(flag) + " expects an unsigned integer, got '" + text +
           "'").c_str());
  }
  return value;
}

int parse_bounded_int(const std::string& text, const char* flag, int lo,
                      int hi) {
  const std::uint64_t value = parse_u64(text, flag);
  if (value < static_cast<std::uint64_t>(lo) ||
      value > static_cast<std::uint64_t>(hi)) {
    usage((std::string(flag) + " must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got '" + text + "'").c_str());
  }
  return static_cast<int>(value);
}

std::vector<graph::vertex_id> parse_seed_list(const std::string& text) {
  std::vector<graph::vertex_id> seeds;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    seeds.push_back(parse_u64(text.substr(begin, end - begin), "--seeds"));
    begin = end + 1;
  }
  return seeds;
}

struct launcher_options {
  int spawn = 0;  ///< 0 = worker mode (explicit --rank/--world)
  int rank = -1;
  int world = 0;
  std::uint16_t port_base = 29870;
  std::optional<std::string> dataset_key;
  std::optional<std::uint64_t> rmat_scale;
  std::uint64_t edge_factor = 8;
  std::optional<std::string> seed_list;
  std::size_t num_seeds = 8;
  bool verify_single = false;
  bool metrics_text = false;
  bool clusterz = false;
};

launcher_options parse_options(int argc, char** argv) {
  launcher_options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--spawn") {
      opts.spawn = parse_bounded_int(next(), "--spawn", 1, 64);
    } else if (arg == "--rank") {
      opts.rank = parse_bounded_int(next(), "--rank", 0, 63);
    } else if (arg == "--world") {
      opts.world = parse_bounded_int(next(), "--world", 1, 64);
    } else if (arg == "--port-base") {
      opts.port_base = static_cast<std::uint16_t>(
          parse_bounded_int(next(), "--port-base", 1024, 65000));
    } else if (arg == "--dataset") {
      opts.dataset_key = next();
    } else if (arg == "--rmat") {
      opts.rmat_scale = parse_u64(next(), "--rmat");
    } else if (arg == "--edge-factor") {
      opts.edge_factor = parse_u64(next(), "--edge-factor");
    } else if (arg == "--seeds") {
      opts.seed_list = next();
    } else if (arg == "--num-seeds") {
      opts.num_seeds = parse_u64(next(), "--num-seeds");
    } else if (arg == "--verify-single") {
      opts.verify_single = true;
    } else if (arg == "--metrics-text") {
      opts.metrics_text = true;
    } else if (arg == "--clusterz") {
      opts.clusterz = true;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (opts.spawn > 0) {
    if (opts.rank >= 0 || opts.world > 0) {
      usage("--spawn and --rank/--world are mutually exclusive");
    }
    opts.world = opts.spawn;
    opts.rank = 0;
  } else if (opts.rank < 0 || opts.world == 0 || opts.rank >= opts.world) {
    usage("worker mode needs --rank R --world W with R < W");
  }
  if (opts.dataset_key.has_value() == opts.rmat_scale.has_value()) {
    usage("exactly one of --dataset / --rmat is required");
  }
  return opts;
}

/// Deterministic graph construction: every rank process of one mesh runs this
/// independently and must arrive at identical CSR content (the distributed
/// runtime replicates the graph and shards only the solve state).
graph::csr_graph load_graph(const launcher_options& opts) {
  if (opts.dataset_key) return io::load_dataset(*opts.dataset_key).graph;
  graph::rmat_params params;
  params.scale = *opts.rmat_scale;
  params.edge_factor = opts.edge_factor;
  params.seed = 0xD5EE;
  graph::edge_list list = graph::generate_rmat(params);
  graph::assign_uniform_weights(list, 1, 100, 0xD5EE ^ params.scale);
  graph::connect_components(list, 101, 0xD5EE);
  return graph::csr_graph(list);
}

/// Per-rank traffic counters in Prometheus text exposition, self-validated —
/// the same `dsteiner_net_*` families the query service exports, scoped to
/// this launcher process.
int print_metrics(const runtime::net::net_solve_report& report) {
  std::string out;
  obs::prom_writer w(out, "dsteiner");
  const std::string rank = std::to_string(report.rank);
  const auto counter = [&](std::string_view name, std::string_view help,
                           std::uint64_t value) {
    w.family(name, obs::prom_type::counter, help)
        .sample(value, {{"rank", rank}});
  };
  counter("net_bytes_sent_total",
          "Wire bytes sent by this rank (headers included).",
          report.stats.bytes_sent);
  counter("net_bytes_received_total", "Wire bytes received by this rank.",
          report.stats.bytes_received);
  counter("net_frames_sent_total", "Frames sent by this rank.",
          report.stats.frames_sent);
  counter("net_frames_received_total", "Frames received by this rank.",
          report.stats.frames_received);
  counter("net_supersteps_total", "BSP supersteps this rank participated in.",
          report.supersteps);
  counter("net_ghost_labels_sent_total",
          "Boundary labels pushed to neighbouring ranks.",
          report.ghost_labels_sent);
  counter("net_bytes_modelled_total",
          "Perf-model predicted payload bytes for the same traffic.",
          report.bytes_modelled);
  if (report.rank == 0 && !report.cluster.samples.empty()) {
    // Rank 0 carries the merged telemetry plane; expose the same
    // dsteiner_cluster_* families the query service's /metrics serves.
    const std::vector<runtime::net::straggler_row> rows =
        runtime::net::straggler_rows(report.cluster);
    std::uint64_t straggling = 0;
    for (const runtime::net::straggler_row& row : rows) {
      if (row.compute_skew >= 2.0) ++straggling;
    }
    counter("cluster_telemetry_samples_total",
            "Per-rank, per-superstep telemetry frames merged on rank 0.",
            report.cluster.samples.size());
    counter("cluster_supersteps_total",
            "Superstep groups attributed by the straggler report.",
            rows.size());
    counter("cluster_straggler_supersteps_total",
            "Attributed supersteps whose compute skew reached 2x.", straggling);
  }
  const obs::prom_report check = obs::validate_prometheus(out);
  std::fputs(out.c_str(), stdout);
  if (!check.ok()) {
    std::fprintf(stderr, "metrics exposition invalid:\n%s",
                 check.to_string().c_str());
    return 1;
  }
  return 0;
}

/// One rank's whole run: join the mesh, solve, optionally verify and report.
int run_rank(const launcher_options& opts, int rank) {
  const graph::csr_graph g = load_graph(opts);
  std::vector<graph::vertex_id> seeds;
  if (opts.seed_list) {
    seeds = parse_seed_list(*opts.seed_list);
  } else {
    seeds = seed::select_seeds(g, opts.num_seeds,
                               seed::seed_strategy::bfs_level, 0xd5ee);
  }

  core::solver_config config;

  runtime::net::tcp_backend_config net_config;
  net_config.rank = rank;
  net_config.world = opts.world;
  net_config.base_port = opts.port_base;
  runtime::net::tcp_backend net(net_config);

  util::timer solve_timer;
  runtime::net::net_solve_report report;
  const core::steiner_result result =
      runtime::net::solve_rank(g, seeds, config, net, &report);
  std::fprintf(stderr,
               "rank %d/%d: %zu tree edges, D(GS) = %llu, %llu supersteps, "
               "%llu bytes sent (%.3fs)\n",
               rank, opts.world, result.tree_edges.size(),
               static_cast<unsigned long long>(result.total_distance),
               static_cast<unsigned long long>(report.supersteps),
               static_cast<unsigned long long>(report.stats.bytes_sent),
               solve_timer.seconds());

  int status = 0;
  if (opts.verify_single) {
    const core::steiner_result reference =
        core::solve_steiner_tree(g, seeds, config);
    if (result.tree_edges != reference.tree_edges ||
        result.total_distance != reference.total_distance) {
      std::fprintf(stderr,
                   "rank %d: MISMATCH vs single-process solve "
                   "(%zu/%llu distributed, %zu/%llu single)\n",
                   rank, result.tree_edges.size(),
                   static_cast<unsigned long long>(result.total_distance),
                   reference.tree_edges.size(),
                   static_cast<unsigned long long>(reference.total_distance));
      status = 1;
    } else {
      std::fprintf(stderr, "rank %d: verified bit-identical to single-process"
                   " solve\n", rank);
    }
  }
  if (opts.metrics_text && status == 0) status = print_metrics(report);
  if (opts.clusterz && status == 0 && rank == 0) {
    // The merged telemetry plane lives on rank 0 only.
    std::fputs(runtime::net::render_cluster_json(report.cluster).c_str(),
               stdout);
    std::fputc('\n', stdout);
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const launcher_options opts = parse_options(argc, argv);

  std::vector<pid_t> children;
  int rank = opts.rank;
  if (opts.spawn > 0) {
    for (int r = 1; r < opts.world; ++r) {
      const pid_t child = ::fork();
      if (child < 0) {
        std::perror("fork");
        return 1;
      }
      if (child == 0) {
        children.clear();
        rank = r;
        break;
      }
      children.push_back(child);
    }
  }

  int status = 0;
  try {
    status = run_rank(opts, rank);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank %d error: %s\n", rank, e.what());
    status = 1;
  }

  for (const pid_t child : children) {
    int wstatus = 0;
    if (::waitpid(child, &wstatus, 0) != child ||
        !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      status = 1;
    }
  }
  if (!children.empty() && status == 0) {
    std::fprintf(stderr, "all %d ranks agreed\n", opts.world);
  }
  if (rank != opts.rank) ::_exit(status);  // forked child: skip parent atexit
  return status;
}

// dist-tcp: min(3, nproc - 1) rank processes on one persistent localhost
// tcp_backend mesh run net::solve_rank on the FRS mirror, |S| cycling
// {16, 64, 256}, default config (telemetry on). Rank 0 is this process and
// times each query; the forked ranks take commands over pipes.
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/validation.hpp"
#include "runtime/net/cluster_telemetry.hpp"
#include "runtime/net/dist_solver.hpp"
#include "runtime/net/tcp_backend.hpp"

namespace perfbench {

namespace {

namespace net = ds::runtime::net;
using seed_plan = std::vector<std::vector<ds::graph::vertex_id>>;

constexpr std::size_t k_trace_plan = 24;
/// Seed sets a measured run cycles through (see cold_solo.cpp); a rank keeps
/// no per-query state between solves on the mesh.
constexpr std::size_t k_plan = 96;

enum class op : std::uint32_t { quit = 0, solve = 1, reference = 2, rss = 3 };

struct command {
  op what = op::quit;
  std::uint32_t index = 0;
};

/// One forked rank's answer to a command. For solve: the tree digest and
/// this rank's per-query traffic; for reference: the cooperative digest; for
/// rss: ru_maxrss in KiB in `digest`.
struct reply {
  std::uint64_t ok = 0;
  std::uint64_t digest = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_modelled = 0;
  std::uint64_t ghost_labels = 0;
};

void write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("pipe write to a rank failed");
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// True when `world` consecutive loopback ports from `base` can be bound.
bool ports_free(std::uint16_t base, int world) {
  for (int r = 0; r < world; ++r) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + r));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (!ok) return false;
  }
  return true;
}

std::uint16_t pick_base_port(int world, int attempt) {
  for (int i = 0; i < 256; ++i) {
    const auto slot = static_cast<std::uint32_t>(
        (static_cast<std::uint32_t>(::getpid()) * 131U +
         static_cast<std::uint32_t>(attempt) * 17U +
         static_cast<std::uint32_t>(i) * 7919U) %
        3000U);
    const auto base = static_cast<std::uint16_t>(30000U + slot * 8U);
    if (ports_free(base, world)) return base;
  }
  throw std::runtime_error("no free loopback port range for the mesh");
}

[[noreturn]] void rank_main(int rank, int world, std::uint16_t base,
                            const ds::graph::csr_graph& graph,
                            const seed_plan& plan, int cmd_fd, int reply_fd) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  int status = 0;
  try {
    net::tcp_backend_config cfg;
    cfg.rank = rank;
    cfg.world = world;
    cfg.base_port = base;
    net::tcp_backend mesh(cfg);
    net::net_stats prev{};
    command c;
    while (read_all(cmd_fd, &c, sizeof(c)) && c.what != op::quit) {
      reply r;
      if (c.what == op::solve) {
        net::net_solve_report report;
        const ds::core::steiner_result result =
            net::solve_rank(graph, plan[c.index], {}, mesh, &report);
        r.ok = 1;
        r.digest = tree_digest(result);
        r.bytes_sent = report.stats.bytes_sent - prev.bytes_sent;
        r.frames_sent = report.stats.frames_sent - prev.frames_sent;
        r.bytes_modelled = report.bytes_modelled;
        r.ghost_labels = report.ghost_labels_sent;
        prev = report.stats;
      } else if (c.what == op::reference) {
        try {
          r.digest = tree_digest(ds::core::solve_steiner_tree(
              graph, plan[c.index], reference_config()));
          r.ok = 1;
        } catch (const std::exception&) {
          r.ok = 0;
        }
      } else if (c.what == op::rss) {
        rusage usage{};
        ::getrusage(RUSAGE_SELF, &usage);
        r.ok = 1;
        r.digest = static_cast<std::uint64_t>(usage.ru_maxrss);
      }
      write_all(reply_fd, &r, sizeof(r));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist-tcp rank %d: %s\n", rank, e.what());
    status = 1;
  }
  ::_exit(status);
}

/// The forked ranks plus rank 0's endpoint. Destruction tells every rank to
/// quit (closing its command pipe), then reaps it, killing stragglers.
class mesh_group {
 public:
  struct child {
    pid_t pid = -1;
    int cmd_fd = -1;
    int reply_fd = -1;
  };

  mesh_group(int world, const ds::graph::csr_graph& graph,
             const seed_plan& plan, int attempt, tracer& t) {
    try {
      start(world, graph, plan, attempt, t);
    } catch (...) {
      shutdown();
      throw;
    }
  }

  ~mesh_group() { shutdown(); }

  mesh_group(const mesh_group&) = delete;
  mesh_group& operator=(const mesh_group&) = delete;

  net::tcp_backend& backend() { return *backend_; }

  void send(std::size_t child, op what, std::uint32_t index) {
    const command c{what, index};
    write_all(children_[child].cmd_fd, &c, sizeof(c));
  }
  void broadcast(op what, std::uint32_t index) {
    for (std::size_t i = 0; i < children_.size(); ++i) send(i, what, index);
  }
  reply receive(std::size_t child) {
    reply r;
    if (!read_all(children_[child].reply_fd, &r, sizeof(r))) {
      throw std::runtime_error("a rank process exited mid-run");
    }
    return r;
  }
  [[nodiscard]] std::size_t size() const { return children_.size(); }

 private:
  void start(int world, const ds::graph::csr_graph& graph,
             const seed_plan& plan, int attempt, tracer& t) {
    const std::uint16_t base = pick_base_port(world, attempt);
    for (int rank = 1; rank < world; ++rank) {
      int cmd[2];
      int rep[2];
      if (::pipe(cmd) != 0 || ::pipe(rep) != 0) {
        throw std::runtime_error("pipe failed");
      }
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        ::close(cmd[1]);
        ::close(rep[0]);
        for (const child& c : children_) {
          ::close(c.cmd_fd);
          ::close(c.reply_fd);
        }
        rank_main(rank, world, base, graph, plan, cmd[0], rep[1]);
      }
      ::close(cmd[0]);
      ::close(rep[1]);
      children_.push_back({pid, cmd[1], rep[0]});
    }
    span_scope s(t, "net.mesh_connect");
    net::tcp_backend_config cfg;
    cfg.rank = 0;
    cfg.world = world;
    cfg.base_port = base;
    backend_ = std::make_unique<net::tcp_backend>(cfg);
  }

  void shutdown() noexcept {
    if (backend_) backend_->close();
    for (child& c : children_) {
      ::close(c.cmd_fd);
      ::close(c.reply_fd);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (child& c : children_) {
      int status = 0;
      while (::waitpid(c.pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
          ::kill(c.pid, SIGKILL);
          ::waitpid(c.pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    children_.clear();
  }

  std::vector<child> children_;
  std::unique_ptr<net::tcp_backend> backend_;
};

struct query_record {
  std::size_t plan_index = 0;
  bool ranks_agree = true;
  std::uint64_t digest = 0;
  std::vector<ds::graph::weighted_edge> tree;
};

/// Per-query traffic and telemetry folded into the net.* metrics.
struct net_sample {
  double bytes = 0.0;
  double frames = 0.0;
  double modelled = 0.0;
  double supersteps = 0.0;
  double votes = 0.0;
  double ghosts = 0.0;
  double compute = 0.0;
  double recv_wait = 0.0;
  double comm_fraction = 0.0;
  double skew_max = 0.0;
};

}  // namespace

run_output run_dist_tcp(const options& opt, tracer& t) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // One core is left free (see cold_solo.cpp): every superstep waits for
  // the slowest rank. On a 4-vCPU VM, 4 ranks spread 11-15% over runs of
  // one build, 3 ranks 6%.
  const int world = static_cast<int>(std::clamp<std::size_t>(nproc - 1, 2, 3));
  if (nproc < 2) throw std::runtime_error("dist-tcp needs at least 2 cores");
  // A rank that dies closes its pipe; writing to it must fail, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  const std::size_t plan_size = opt.trace ? k_trace_plan : k_plan;

  // ---- set-up, repeated for a median: graph, seeds, fork + mesh ----------
  loaded_graph g;
  seed_plan plan;
  std::unique_ptr<mesh_group> mesh;
  std::vector<double> setup_times;
  for (int rep = 0; rep < k_setup_reps; ++rep) {
    mesh.reset();  // free the previous repeat's mesh and inputs first
    g = {};
    plan = {};
    const double t0 = now_seconds();
    g = load_graph("FRS", t);
    plan = bfs_level_plan(g.graph, plan_size, opt.seed, t);
    mesh = std::make_unique<mesh_group>(world, g.graph, plan, rep, t);
    setup_times.push_back(now_seconds() - t0);
  }

  std::vector<query_record> records;
  net::net_stats prev{};
  // One query across the mesh: the forked ranks get their command, rank 0
  // solves here. `sample` (traced passes) receives the per-query traffic.
  const auto solve = [&](tracer& tt, std::size_t index,
                         std::vector<double>& latencies,
                         std::uint64_t query_id, net_sample* sample,
                         ds::core::steiner_result* keep) {
    query_record rec;
    rec.plan_index = index;
    net::net_solve_report report;
    {
      span_scope root(tt, "bench.query", 0, query_id);
      const double q0 = now_seconds();
      try {
        {
          span_scope s(tt, "bench.dispatch", root.id(), query_id);
          mesh->broadcast(op::solve, static_cast<std::uint32_t>(index));
        }
        span_scope s(tt, "net.solve_rank", root.id(), query_id);
        ds::core::steiner_result r =
            net::solve_rank(g.graph, plan[index], {}, mesh->backend(), &report);
        latencies.push_back(now_seconds() - q0);
        rec.digest = tree_digest(r);
        rec.tree = r.tree_edges;
        if (keep != nullptr) *keep = std::move(r);
      } catch (const std::exception& e) {
        // A failed rank leaves the mesh in an unknown state: stop the run.
        throw std::runtime_error("query on seed set " + std::to_string(index) +
                                 " failed: " + e.what());
      }
    }
    net_sample ns;
    ns.bytes = static_cast<double>(report.stats.bytes_sent - prev.bytes_sent);
    ns.frames =
        static_cast<double>(report.stats.frames_sent - prev.frames_sent);
    ns.modelled = static_cast<double>(report.bytes_modelled);
    ns.ghosts = static_cast<double>(report.ghost_labels_sent);
    prev = report.stats;
    for (std::size_t c = 0; c < mesh->size(); ++c) {
      const reply r = mesh->receive(c);
      if (r.ok == 0 || r.digest != rec.digest) rec.ranks_agree = false;
      ns.bytes += static_cast<double>(r.bytes_sent);
      ns.frames += static_cast<double>(r.frames_sent);
      ns.modelled += static_cast<double>(r.bytes_modelled);
      ns.ghosts += static_cast<double>(r.ghost_labels);
    }
    if (sample != nullptr) {
      ns.supersteps = static_cast<double>(report.supersteps);
      ns.votes = static_cast<double>(report.vote_rounds);
      for (const auto& s : report.cluster.samples) {
        ns.compute += static_cast<double>(s.compute_nanos) * 1e-9;
        ns.recv_wait += static_cast<double>(s.recv_wait_nanos) * 1e-9;
      }
      const net::cluster_summary summary =
          net::summarize_cluster(report.cluster);
      ns.comm_fraction = summary.comm_wait_fraction;
      ns.skew_max = summary.max_compute_skew;
      *sample = ns;
    }
    records.push_back(std::move(rec));
  };

  run_output out;
  if (!opt.trace) {
    std::vector<double> latencies;
    const double start = now_seconds();
    double end = start;
    for (std::size_t i = 0; end - start < opt.seconds; ++i) {
      solve(t, i % plan.size(), latencies, 0, nullptr, nullptr);
      end = now_seconds();
    }
    double rss = self_peak_rss_mb();
    mesh->broadcast(op::rss, 0);
    for (std::size_t c = 0; c < mesh->size(); ++c) {
      rss = std::max(rss, static_cast<double>(mesh->receive(c).digest) / 1024.0);
    }
    out.metrics["peak_rss_mb"] = rss;
    out.metrics["setup_s"] = median(setup_times);
    out.metrics["query_p50_s"] = median(latencies);
    out.query_tail = tail(latencies);
    out.metrics["query_tail_s"] = out.query_tail.value;
    out.metrics["queries_per_s"] =
        static_cast<double>(latencies.size()) / (end - start);
  } else {
    // Untraced and traced passes over one fixed plan (see cold_solo.cpp).
    tracer off(false);
    std::vector<double> untraced;
    std::vector<double> traced;
    core_counters core;
    std::vector<net_sample> samples;
    const double start = now_seconds();
    std::uint64_t query_id = 0;
    do {
      for (std::size_t i = 0; i < plan.size(); ++i) {
        solve(off, i, untraced, 0, nullptr, nullptr);
      }
      for (std::size_t i = 0; i < plan.size(); ++i) {
        net_sample ns;
        ds::core::steiner_result r;
        solve(t, i, traced, ++query_id, &ns, &r);
        core.add(r);
        samples.push_back(ns);
      }
    } while (now_seconds() - start < opt.seconds);

    core.emit(out.metrics);
    std::vector<double> bytes, frames, steps, votes, ghosts, compute, wait,
        fraction, skew;
    double total_bytes = 0.0;
    double total_modelled = 0.0;
    for (const net_sample& s : samples) {
      bytes.push_back(s.bytes);
      frames.push_back(s.frames);
      steps.push_back(s.supersteps);
      votes.push_back(s.votes);
      ghosts.push_back(s.ghosts);
      compute.push_back(s.compute);
      wait.push_back(s.recv_wait);
      fraction.push_back(s.comm_fraction);
      skew.push_back(s.skew_max);
      total_bytes += s.bytes;
      total_modelled += s.modelled;
    }
    out.metrics["net.bytes_per_query"] = median(bytes);
    out.metrics["net.frames_per_query"] = median(frames);
    out.metrics["net.supersteps_per_query"] = median(steps);
    out.metrics["net.vote_rounds_per_query"] = median(votes);
    out.metrics["net.ghost_labels_per_query"] = median(ghosts);
    out.metrics["net.overhead_ratio"] =
        total_modelled > 0.0 ? total_bytes / total_modelled : 0.0;
    out.metrics["net.compute_s"] = median(compute);
    out.metrics["net.recv_wait_s"] = median(wait);
    out.metrics["net.comm_wait_fraction"] = median(fraction);
    out.metrics["net.compute_skew_max"] = median(skew);
    emit_setup_metrics(t, out.metrics);
    const double base = median(untraced);
    out.metrics["obs.trace_overhead_ratio"] =
        base > 0.0 ? median(traced) / base : 0.0;
    out.query_tail = tail(traced);
  }

  // ---- correctness gate: references spread over every rank process ------
  std::vector<std::size_t> distinct;
  {
    std::vector<bool> used(plan.size(), false);
    for (const query_record& rec : records) used[rec.plan_index] = true;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (used[i]) distinct.push_back(i);
    }
  }
  std::vector<std::uint64_t> ref_digest(plan.size(), 0);
  std::vector<bool> ref_ok(plan.size(), false);
  const std::size_t procs = mesh->size() + 1;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    if (k % procs != 0) {
      mesh->send(k % procs - 1, op::reference,
                 static_cast<std::uint32_t>(distinct[k]));
    }
  }
  for (std::size_t k = 0; k < distinct.size(); k += procs) {
    try {
      ref_digest[distinct[k]] = tree_digest(ds::core::solve_steiner_tree(
          g.graph, plan[distinct[k]], reference_config()));
      ref_ok[distinct[k]] = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dist-tcp reference failed: %s\n", e.what());
    }
  }
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    if (k % procs == 0) continue;
    const reply r = mesh->receive(k % procs - 1);
    ref_digest[distinct[k]] = r.digest;
    ref_ok[distinct[k]] = r.ok != 0;
  }
  mesh.reset();

  for (const query_record& rec : records) {
    ++out.attempted;
    bool good = rec.ranks_agree && ref_ok[rec.plan_index] &&
                rec.digest == ref_digest[rec.plan_index];
    if (good) {
      const auto check = ds::core::validate_steiner_tree(
          g.graph, plan[rec.plan_index], rec.tree);
      if (!check) {
        std::fprintf(stderr, "dist-tcp: invalid tree: %s\n",
                     check.error.c_str());
        good = false;
      }
    } else {
      std::fprintf(stderr,
                   "dist-tcp: tree differs from reference or between ranks "
                   "(set %zu)\n",
                   rec.plan_index);
    }
    if (!good) ++out.failed;
  }

  out.env["ranks"] = std::to_string(world);
  out.env["workers"] = "1 per rank process";
  out.env["transport"] = "tcp_backend over loopback, telemetry on";
  out.env["clients"] = "1";
  out.env["dataset"] = dataset_env(g);
  out.notes.push_back(setup_note(setup_times));
  out.env["seed_sets"] = std::to_string(plan.size());
  out.notes.push_back("dist-tcp: " + std::to_string(records.size()) +
                      " solves over a " + std::to_string(world) +
                      "-rank TCP mesh on " + g.spec.key + ", " +
                      std::to_string(distinct.size()) +
                      " distinct seed sets checked against the cooperative "
                      "engine");
  return out;
}

}  // namespace perfbench

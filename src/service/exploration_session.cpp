#include "service/exploration_session.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "service/steiner_service.hpp"

namespace dsteiner::service {

exploration_session::exploration_session(graph::csr_graph graph,
                                         core::solver_config config)
    : config_(config) {
  // Interactive editing routinely disconnects seeds; return forests instead
  // of throwing mid-session.
  config_.allow_disconnected_seeds = true;
  service_config svc_config;
  svc_config.solver = config_;
  // One user, one in-flight query: a single worker keeps edits ordered while
  // still buying the service's cache and fragment reuse. Graph edits
  // derive epochs on this same service — sessions never rebuild it.
  svc_config.exec.num_threads = 1;
  svc_config.exec.queue_capacity = 16;
  // Sessions always read the graph they just edited: stale-epoch serving
  // would hand back the previous epoch's tree, so it stays off and the
  // session relies on pinned-epoch cache entries plus edge-delta repairs.
  svc_config.max_stale_epochs = 0;
  service_ = std::make_unique<steiner_service>(std::move(graph), svc_config);
  epoch_ = service_->current_epoch();
}

exploration_session::~exploration_session() = default;

const graph::csr_graph& exploration_session::graph() const {
  return service_->graph();
}

void exploration_session::apply_edge_delta(const graph::edge_delta& delta) {
  if (delta.empty()) return;  // nothing changed: the cached tree stands
  epoch_ = service_->advance_epoch(delta);
  invalidate();
}

bool exploration_session::add_seed(graph::vertex_id v) {
  if (v >= graph().num_vertices()) {
    throw std::out_of_range("exploration_session: seed id out of range");
  }
  if (!seeds_.insert(v).second) return false;
  invalidate();
  return true;
}

bool exploration_session::remove_seed(graph::vertex_id v) {
  if (seeds_.erase(v) == 0) return false;
  invalidate();
  return true;
}

void exploration_session::set_seeds(std::span<const graph::vertex_id> seeds) {
  // Validate before mutating: a bad id must not leave a half-applied seed
  // set behind a still-"up to date" cached tree.
  for (const graph::vertex_id v : seeds) {
    if (v >= graph().num_vertices()) {
      throw std::out_of_range("exploration_session: seed id out of range");
    }
  }
  seeds_.clear();
  seeds_.insert(seeds.begin(), seeds.end());
  invalidate();
}

void exploration_session::clear_seeds() {
  seeds_.clear();
  invalidate();
}

void exploration_session::filter_edges_above(graph::weight_t cutoff) {
  const graph::csr_graph& g = graph();
  graph::edge_delta delta;
  for (graph::vertex_id u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u >= nbrs[i]) continue;
      // First arc of a parallel group = the pair's minimum weight (rows are
      // sorted by (target, weight)); one edit per undirected pair.
      if (i > 0 && nbrs[i] == nbrs[i - 1]) continue;
      if (wts[i] > cutoff) {
        delta.edits.push_back(graph::edge_edit::disable(u, nbrs[i]));
        continue;
      }
      // Kept pair: if a heavier parallel arc exceeds the cutoff, collapse
      // the pair to its kept minimum (solver-equivalent — shortest paths
      // only ever use the minimum arc).
      for (std::size_t j = i + 1; j < nbrs.size() && nbrs[j] == nbrs[i]; ++j) {
        if (wts[j] > cutoff) {
          delta.edits.push_back(graph::edge_edit::reweight(u, nbrs[i], wts[i]));
          break;
        }
      }
    }
  }
  apply_edge_delta(delta);
}

void exploration_session::remove_vertices(
    std::span<const graph::vertex_id> victims) {
  const graph::csr_graph& g = graph();
  // Validate the whole batch before touching anything: a rejected victim
  // must leave the session (epoch, cached tree) untouched.
  std::vector<char> removed(g.num_vertices(), 0);
  for (const graph::vertex_id v : victims) {
    if (v >= g.num_vertices()) {
      throw std::out_of_range("exploration_session: vertex id out of range");
    }
    if (seeds_.contains(v)) {
      throw std::invalid_argument(
          "exploration_session: cannot remove vertex " + std::to_string(v) +
          ": it is a seed of the current query (remove_seed() it first)");
    }
    removed[v] = 1;
  }

  // One disable edit per incident undirected pair: the graph is symmetric,
  // so visiting each pair from its lower endpoint's row (u < t) covers every
  // incident edge exactly once, and the parallel-group skip collapses
  // multi-arcs to the single edit epoch deltas expect.
  graph::edge_delta delta;
  for (graph::vertex_id u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::vertex_id t = nbrs[i];
      if (u >= t) continue;  // canonical orientation (also skips self-loops)
      if (i > 0 && t == nbrs[i - 1]) continue;  // parallel group: one edit
      if (removed[u] == 0 && removed[t] == 0) continue;
      delta.edits.push_back(graph::edge_edit::disable(u, t));
    }
  }
  apply_edge_delta(delta);
}

void exploration_session::set_ranks(int num_ranks) {
  if (num_ranks <= 0) {
    throw std::invalid_argument("exploration_session: ranks must be positive");
  }
  if (config_.num_ranks == num_ranks) return;
  config_.num_ranks = num_ranks;
  invalidate();
}

const core::steiner_result& exploration_session::tree() {
  if (!cached_) {
    query q;
    q.seeds.assign(seeds_.begin(), seeds_.end());
    q.config = config_;  // per-query override tracks set_ranks edits
    auto qr = service_->solve(request{std::move(q)});
    last_kind_ = qr.kind;
    if (qr.kind != solve_kind::cache_hit) ++recomputes_;
    cached_ = std::move(qr.result);
  }
  return *cached_;
}

}  // namespace dsteiner::service

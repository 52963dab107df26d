// Distributed Voronoi-cell computation (paper Alg. 4, "VORONOI_CELL_ASYNC").
//
// All |S| cells grow concurrently through asynchronous Bellman-Ford
// relaxations: when vertex vj is visited by neighbour vp from cell t with
// tentative distance r, vj joins N(t) if (r, t, vp) improves its state, then
// notifies its neighbours. Message prioritization (priority mailbox keyed on
// r) approximates Dijkstra's settling order and is the paper's headline
// optimization (§V-C). Under the priority policy the mailbox also keeps one
// label per vertex (see voronoi_visitor::queue_key): a dominated visitor no
// longer waits in the heap to be skipped, it is merged away on arrival, so
// every popped normal visitor is live. FIFO keeps every admitted visitor.
//
// Vertex delegates: a high-degree vertex's scatter is split into per-rank
// relay visitors, each enumerating only that rank's slice of the adjacency.
//
// Sender-side dominance filter: a rank drops a scatter product bound for
// another rank's vertex when it already sent that vertex a strictly shorter
// distance (see voronoi_handler::emit), so most dominated visitors never
// become messages.
//
// Frontier window: on every engine (cooperative, threaded and net) a rank's
// round or superstep stops at the first mailbox top more than
// frontier_window() past the global minimum pending distance (see
// runtime/visitor_engine.hpp, runtime/parallel/thread_engine.hpp and
// runtime/net/superstep_engine.hpp). The window only cuts a batch short; it
// never reorders a mailbox, which is what the dominance filter's argument
// rests on.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "core/steiner_state.hpp"
#include "graph/types.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/visitor_engine.hpp"

namespace dsteiner::core {

/// The VORONOI_CELL_VISITOR of Alg. 4 (lines 14-18), extended with a relay
/// kind for delegate scatter.
struct voronoi_visitor {
  graph::vertex_id vj = 0;  ///< vertex being visited
  graph::vertex_id vp = 0;  ///< vertex that sent the visitor (pred candidate)
  graph::vertex_id t = 0;   ///< seed owning vp's cell
  graph::weight_t r = 0;    ///< proposed distance d1(t, vj)

  enum class kind_t : std::uint8_t { normal, relay };
  kind_t kind = kind_t::normal;

  [[nodiscard]] graph::vertex_id target() const noexcept { return vj; }
  [[nodiscard]] std::uint64_t priority() const noexcept { return r; }

  /// Priority-mailbox merge key (runtime::keyed_visitor): a normal visitor
  /// carries a label for vj, so one queued entry per vertex suffices. A
  /// relay carries a label to scatter on whichever rank receives it and
  /// never merges.
  [[nodiscard]] graph::vertex_id queue_key() const noexcept {
    return kind == kind_t::relay ? graph::k_no_vertex : vj;
  }
  /// Dijkstra's rule: the lexicographically least (r, t, vp) label wins.
  [[nodiscard]] bool supersedes(const voronoi_visitor& other) const noexcept {
    return std::tie(r, t, vp) < std::tie(other.r, other.t, other.vp);
  }

  friend bool operator==(const voronoi_visitor&,
                         const voronoi_visitor&) = default;
};

/// Optional admission pruning for Alg. 4 (service/distshare landmark oracle).
/// `upper_bound[v]`, when non-empty, must be a *true* upper bound on
/// min_{s in S} d1(s, v) for the exact graph being solved: a visitor whose
/// proposed distance strictly exceeds it is provably non-improving (its tuple
/// can never be v's final label, and everything it would scatter is likewise
/// dominated), so dropping it cannot change the fixed point — only the work.
/// Equal distances are always admitted: the lexicographic (src, pred)
/// tie-break may still need them.
struct voronoi_prune {
  std::span<const graph::weight_t> upper_bound;  ///< per vertex; empty = off
  std::atomic<std::uint64_t>* pruned = nullptr;  ///< optional drop counter
};

/// Handler implementing Alg. 4's visit() in the pre_visit/visit split of the
/// engines: pre_visit performs the state relaxation (lines 5-9), visit the
/// neighbour scatter (lines 10-13) unless a better update superseded it. The
/// one Alg. 4 implementation: the cooperative and threaded engines run it
/// in-process, net::superstep_engine runs it per rank over wire frames.
class voronoi_handler {
 public:
  voronoi_handler(const runtime::dist_graph& dgraph, steiner_state& state,
                  const voronoi_prune& prune = {})
      : dgraph_(&dgraph),
        state_(&state),
        prune_(prune),
        sent_(static_cast<std::size_t>(dgraph.num_ranks())) {}

  /// Fig. 8 accounting for the dominance filter: `rows` ranks' rows of one
  /// distance per vertex. A rank allocates its row on its first remote
  /// emission, so a single-rank run holds none.
  [[nodiscard]] static std::uint64_t filter_bytes(
      const runtime::dist_graph& dgraph, int rows) noexcept {
    if (dgraph.num_ranks() <= 1) return 0;
    return static_cast<std::uint64_t>(rows) * dgraph.graph().num_vertices() *
           sizeof(graph::weight_t);
  }

  /// Frontier-window width Δ for every engine under the priority
  /// policy (runtime::windowed_handler): the mean arc weight over
  /// the mean degree, floor(W·n/m²) for total arc weight W, n vertices and
  /// m arcs, at least 1. That is a fraction of one mean arc, so a rank's
  /// batch stays near the global frontier; on the bundled mirrors it sits
  /// in the flat optimum of a Δ sweep (README, "Phase-1 schedule"). O(1):
  /// W is kept by csr_graph.
  [[nodiscard]] std::uint64_t frontier_window() const noexcept {
    return frontier_window(dgraph_->graph());
  }
  [[nodiscard]] static std::uint64_t frontier_window(
      const graph::csr_graph& graph) noexcept;

  // Arrival-time admission check only: a visitor that cannot improve the
  // target's *current* state is dropped. The relaxation itself happens at
  // processing time (Alg. 4 lines 5-9 live in visit()), so a FIFO queue
  // exhibits the label-correcting cascades the paper measures in Fig. 6 and
  // the priority queue approximates Dijkstra's settling order.
  //
  // Oracle pruning rides on the same check: a proposed distance strictly
  // above a known-achievable upper bound can never become the target's final
  // label (nor seed a final label downstream — every product of its scatter
  // is dominated the same way), so dropping it is output-neutral. The
  // counter is relaxed-atomic because the threaded engine runs pre_visit
  // concurrently across workers.
  bool pre_visit(const voronoi_visitor& v, int rank) {
    // Relays carry their own label, run on arbitrary ranks and never touch
    // vertex state — admit unconditionally.
    if (v.kind == voronoi_visitor::kind_t::relay) return true;
    assert(dgraph_->owner(v.vj) == rank);
    (void)rank;
    if (!prune_.upper_bound.empty() && v.r > prune_.upper_bound[v.vj]) {
      if (prune_.pruned != nullptr) {
        prune_.pruned->fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    return std::tuple{v.r, v.t, v.vp} < state_->tuple_of(v.vj);
  }

  template <typename Emitter>
  bool visit(const voronoi_visitor& v, int rank, Emitter& out) {
    if (v.kind == voronoi_visitor::kind_t::relay) {
      // Enumerate this rank's slice of the delegate's adjacency and scatter.
      dgraph_->for_each_arc_in_slice(
          v.vj, rank, [&](graph::vertex_id vi, graph::weight_t w) {
            emit(voronoi_visitor{vi, v.vj, v.t, v.r + w}, rank, out);
          });
      return true;
    }
    // Alg. 4 lines 5-9: relax at processing time; skip if superseded.
    if (std::tuple{v.r, v.t, v.vp} >= state_->tuple_of(v.vj)) return false;
    state_->distance[v.vj] = v.r;
    state_->src[v.vj] = v.t;
    state_->pred[v.vj] = v.vp;
    if (dgraph_->is_delegate(v.vj)) {
      // Broadcast relays: each rank scatters its slice of the hub's edges.
      const int slices = dgraph_->num_ranks();
      for (int q = 0; q < slices; ++q) {
        voronoi_visitor relay{v.vj, v.vp, v.t, v.r,
                              voronoi_visitor::kind_t::relay};
        out.to_rank(q, relay);
      }
      return true;
    }
    dgraph_->for_each_arc(v.vj, [&](graph::vertex_id vi, graph::weight_t w) {
      emit(voronoi_visitor{vi, v.vj, v.t, v.r + w}, rank, out);
    });
    return true;
  }

 private:
  // Routes one scatter product through the sender-side dominance filter.
  // Row sent_[rank] holds the best distance `rank` has already sent to each
  // vertex another rank owns. A product for such a vertex with a strictly
  // greater r is dropped here, before it is a message, because it could
  // never matter:
  //   - each sender->receiver pair delivers in FIFO order on every engine
  //     (cooperative, threaded, net), and a mailbox pops lower (priority,
  //     arrival) first. So the earlier visitor x, with x.r < y.r, is
  //     admitted or rejected before y, and if admitted it is visited
  //     before y. The frontier window keeps this on every engine: it only
  //     ends a batch early, at a top above its bound, so a queued x with
  //     x.r < y.r still pops first;
  //   - state only decreases, so once x is through, y's tuple is dominated:
  //     y could only ever be a pre_visit rejection, a mailbox merge or a
  //     skipped visit (a merge keeps a queued label at most x's);
  //   - the oracle prune drops y whenever it drops x.
  // Ties pass, because the (src, pred) tie-break may still need them. Local
  // targets skip the row and meet pre_visit at once, exactly as before.
  // Relays (to_rank) never come here: they carry a label to scatter, not a
  // label for their target. A dropped product is not a message: no
  // messages_* count and no send_cost. Rows are allocated on a rank's first
  // remote emission and touched only by the worker running that rank.
  template <typename Emitter>
  void emit(const voronoi_visitor& v, int rank, Emitter& out) {
    const int to = dgraph_->owner(v.vj);
    if (to != rank) {
      std::vector<graph::weight_t>& row = sent_[static_cast<std::size_t>(rank)];
      if (row.empty()) {
        row.assign(dgraph_->graph().num_vertices(), graph::k_inf_distance);
      }
      if (v.r > row[v.vj]) return;
      row[v.vj] = v.r;
    }
    out.to_rank(to, v);  // to_vertex's routing, without hashing v.vj again
  }

  const runtime::dist_graph* dgraph_;
  steiner_state* state_;
  voronoi_prune prune_;
  std::vector<std::vector<graph::weight_t>> sent_;  ///< per rank; see emit
};


/// Runs Alg. 4 to quiescence, filling `state`. Seeds bootstrap themselves:
/// each s in S receives (r=0, t=s, vp=s). `prune` adds oracle pruning (see
/// voronoi_prune).
[[nodiscard]] runtime::phase_metrics compute_voronoi_cells(
    const runtime::dist_graph& dgraph, std::span<const graph::vertex_id> seeds,
    steiner_state& state, const runtime::engine_config& config,
    const voronoi_prune& prune = {});

/// Warm-start repair: re-runs Alg. 4 to quiescence from caller-chosen initial
/// visitors over an existing (partially valid) `state`. Used after a seed-set
/// delta: `initial` carries the bootstrap visitors of added seeds plus
/// re-entry visitors along the boundary of reset (removed-cell) regions.
/// Because every update strictly decreases the lexicographic (d1, src, pred)
/// tuple and the fixed point is the unique minimum over all seed-to-vertex
/// paths, repairing from a converged donor state reaches the same labelling a
/// cold run would.
[[nodiscard]] runtime::phase_metrics repair_voronoi_cells(
    const runtime::dist_graph& dgraph, std::vector<voronoi_visitor> initial,
    steiner_state& state, const runtime::engine_config& config,
    const voronoi_prune& prune = {});

/// Fragment-injection entry point — the cross-query analogue of warm-start
/// frontier injection. Pre-seeds a fresh `state` with the lexicographic
/// minimum label each vertex gets across `fragments` (fragments whose seed is
/// not in the canonical `seeds` set are skipped: their labels would not be
/// achievable in this solve), then returns the initial visitor set that makes
/// relaxation from this state reach exactly the cold fixed point:
///
///   - one bootstrap visitor (r=0, t=s, vp=s) per seed, covering seeds with
///     no (or truncated) fragments;
///   - one scatter visitor per fragment-boundary arc whose relaxation would
///     improve its target's pre-seeded state. Interior arcs of a single
///     fragment never qualify (a converged cell satisfies the relaxation
///     inequality along every internal arc), so the frontier is the fragment
///     surface plus cross-fragment seams, not the whole membership.
///
/// Why this is bit-identical to cold: every pre-seeded label is an achievable
/// triple (so the state never drops below the true fixed point), and any wave
/// that a pre-seeded vertex absorbs without improvement is dominated — along
/// interior arcs by the cell's own internal consistency, and across every arc
/// where domination could break, an initial scatter was emitted. Relaxation
/// therefore still delivers the canonical optimal chain to every vertex, and
/// the unique lexicographic fixed point is reached with (typically far) fewer
/// relaxations.
///
/// `preseeded`, when non-null, receives the number of vertices pre-seeded.
[[nodiscard]] std::vector<voronoi_visitor> inject_fragments(
    const graph::csr_graph& graph,
    std::span<const sssp_fragment_view> fragments,
    std::span<const graph::vertex_id> seeds, steiner_state& state,
    std::size_t* preseeded = nullptr);

}  // namespace dsteiner::core

#include "runtime/net/dist_solver.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/solver_detail.hpp"
#include "core/tree_edges.hpp"
#include "core/voronoi.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/net/loopback_backend.hpp"
#include "runtime/net/superstep_engine.hpp"
#include "util/cancellation.hpp"
#include "util/timer.hpp"

namespace dsteiner::runtime::net {

namespace {

/// Boundary label sync between phases 1 and 2: each owned, reached vertex's
/// (src, d1) goes to every other rank owning one of its neighbours — a
/// superset of the remote reads of core::scan_cross_edges. pred is
/// deliberately not synced: walk-backs only ever dereference pred on the
/// owner. Returns the labels sent.
std::uint64_t sync_ghosts(rank_context& ctx, const runtime::dist_graph& dgraph,
                          core::steiner_state& state) {
  const std::uint64_t sent_before = ctx.begin_window();
  const util::timer compute_timer;
  std::vector<std::vector<ghost_label>> out(
      static_cast<std::size_t>(ctx.world()));
  std::uint64_t labels = 0;
  for (const graph::vertex_id v : dgraph.local_vertices(ctx.rank())) {
    if (!state.reached(v)) continue;
    for (const graph::vertex_id u : dgraph.graph().neighbors(v)) {
      const int owner = dgraph.owner(u);
      // One label per (v, owner): v's labels are the last ones appended.
      auto& to = out[static_cast<std::size_t>(owner)];
      if (owner == ctx.rank() || (!to.empty() && to.back().v == v)) continue;
      to.push_back(ghost_label{v, state.src[v], state.distance[v]});
      ++labels;
    }
  }
  ctx.scratch.compute_seconds = compute_timer.seconds();
  ctx.exchange(
      [&](int peer) {
        return std::span<const ghost_label>(
            out[static_cast<std::size_t>(peer)]);
      },
      encode_ghost_batch,
      [&](frame& f) {
        for (const ghost_label& g : decode_ghost_batch(f)) {
          if (g.v >= dgraph.graph().num_vertices()) {
            throw wire_error("ghost label for a vertex outside the graph");
          }
          state.distance[g.v] = g.dist;
          state.src[g.v] = g.src;
          ++ctx.report.ghost_labels_applied;
        }
      });
  ctx.report.ghost_labels_sent += labels;
  ctx.emit_phase_telemetry(telemetry_phase::ghost_sync, labels);
  ctx.record_traffic(0, sent_before);
  return labels;
}

/// Phase 3: all-to-all exchange of the per-rank EN maps and a lexicographic
/// min-merge — the wire realisation of Allreduce(MIN) over EN. The merged
/// map's *content* is identical on every rank (min is order-free), which is
/// all downstream phases read: they iterate bridges in sorted key order.
phase_metrics exchange_en(rank_context& ctx, graph::vertex_id num_vertices,
                          const core::cross_edge_map& local_en,
                          core::cross_edge_map& global_en,
                          const runtime::communicator& comm) {
  phase_metrics metrics{};
  const util::timer wall;
  const std::uint64_t sent_before = ctx.begin_window();
  std::vector<wire_en_entry> wire;
  wire.reserve(local_en.size());
  for (const auto& [key, entry] : local_en) {
    wire.push_back(wire_en_entry{key.first, key.second, entry.bridge_distance,
                                 entry.u, entry.v, entry.edge_weight});
  }
  ctx.scratch.compute_seconds = wall.seconds();
  global_en = local_en;
  ctx.exchange(
      [&](int) { return std::span<const wire_en_entry>(wire); },
      encode_en_batch, [&](frame& f) {
        for (const wire_en_entry& e : decode_en_batch(f)) {
          if (std::max({e.seed_a, e.seed_b, e.u, e.v}) >= num_vertices) {
            throw wire_error("EN entry names a vertex outside the graph");
          }
          const core::cross_edge_entry entry{e.bridge_distance, e.u, e.v,
                                             e.edge_weight};
          const auto [it, inserted] =
              global_en.emplace(core::seed_pair{e.seed_a, e.seed_b}, entry);
          if (!inserted) it->second = core::min_entry(it->second, entry);
        }
      });
  ctx.emit_phase_telemetry(telemetry_phase::en_reduce);

  // Simulated-clock accounting mirrors the in-process collective: the
  // reduced map is the payload every rank ends up holding.
  constexpr std::uint64_t entry_bytes =
      sizeof(core::seed_pair) + sizeof(core::cross_edge_entry);
  comm.charge_collective(global_en.size() * entry_bytes, metrics);
  comm.note_buffer_bytes(global_en.size() * entry_bytes);

  ctx.record_traffic(0, sent_before);
  metrics.wall_seconds = wall.seconds();
  return metrics;
}

/// Phase 6 on the superstep engine — every rank derives the same bridge
/// list (global EN is identical) and walks from the endpoints it owns — then
/// the result-edge allgather, leaving every rank's edges in `tree`.
phase_metrics collect_tree_edges(rank_context& ctx,
                                 const runtime::dist_graph& dgraph,
                                 const core::steiner_state& state,
                                 const runtime::engine_config& engine,
                                 const core::cross_edge_map& pruned_en,
                                 std::vector<graph::weighted_edge>& tree) {
  std::vector<std::vector<graph::weighted_edge>> per_rank_es;
  const std::vector<core::tree_edge_visitor> initial =
      core::seed_tree_edges(dgraph, pruned_en, per_rank_es);
  core::tree_edge_handler handler(dgraph, state, per_rank_es);
  superstep_engine<core::tree_edge_visitor, core::tree_edge_handler> walks(
      ctx, dgraph.parts(), handler, engine, telemetry_phase::tree_walk);
  for (const core::tree_edge_visitor& v : initial) walks.seed(v);
  phase_metrics metrics = walks.run();

  const util::timer gather_timer;
  const std::uint64_t sent_before = ctx.begin_window();
  const std::span<const graph::weighted_edge> mine(
      per_rank_es[static_cast<std::size_t>(ctx.rank())]);
  tree.assign(mine.begin(), mine.end());
  ctx.exchange(
      [&](int) { return mine; }, encode_edge_batch,
      [&](frame& f) {
        for (const graph::weighted_edge& e : decode_edge_batch(f)) {
          tree.push_back(e);
        }
      },
      // This is the last exchange of the solve, so the sample must precede
      // the markers: per-peer FIFO then guarantees rank 0 absorbs it while
      // draining to our marker. The cost is that gather samples carry no
      // recv_wait (the drain has not happened yet when they are emitted).
      [&] { ctx.emit_phase_telemetry(telemetry_phase::gather); });
  ctx.record_traffic(0, sent_before);
  metrics.wall_seconds += gather_timer.seconds();
  return metrics;
}

/// Alg. 3 for |S| > 1 on this rank: phase 1, phase 2 and the EN reduction
/// here; MST, pruning and assembly in core's shared tail, which runs phase 6
/// through collect_tree_edges.
void solve_phases(const graph::csr_graph& graph,
                  std::span<const graph::vertex_id> seed_list,
                  rank_context& ctx, core::steiner_result& result) {
  const core::solver_config& config = ctx.config;
  const runtime::dist_graph dgraph(
      graph, {ctx.world(), config.scheme, config.use_delegates,
              config.delegate_threshold});
  result.delegate_count = dgraph.delegate_count();
  result.memory.partition_bytes = dgraph.memory_bytes();
  const runtime::engine_config engine{config.policy, config.mode,
                                      config.batch_size, config.costs};
  core::steiner_state state(graph.num_vertices());
  result.memory.state_bytes = state.memory_bytes() + graph.num_vertices() / 8;
  // This rank's one dominance-filter row.
  result.memory.send_filter_bytes =
      core::voronoi_handler::filter_bytes(dgraph, 1);
  // This rank's one mailbox position index.
  result.memory.queue_index_bytes =
      mailbox<core::voronoi_visitor>::index_bytes(config.policy,
                                                  graph.num_vertices());

  core::detail::run_phase(result, config, phase_names::voronoi, [&] {
    core::voronoi_handler handler(dgraph, state);
    superstep_engine<core::voronoi_visitor, core::voronoi_handler> cells(
        ctx, dgraph.parts(), handler, engine, telemetry_phase::voronoi);
    for (const graph::vertex_id s : seed_list) {
      cells.seed(core::voronoi_visitor{s, s, s, 0});
    }
    return cells.run();
  });

  core::cross_edge_map local_en;
  core::detail::run_phase(result, config, phase_names::local_min_edge, [&] {
    const std::uint64_t ghosts = sync_ghosts(ctx, dgraph, state);
    phase_metrics metrics = core::scan_cross_edges(
        dgraph, state, config.costs, ctx.rank(),
        dgraph.local_vertices(ctx.rank()), /*both_directions=*/false,
        local_en);
    metrics.messages_remote += ghosts;
    return metrics;
  });
  if (config.budget != nullptr) config.budget->check();

  const runtime::communicator comm(ctx.world(), config.costs);
  std::vector<core::cross_edge_map> global_en(1);
  core::detail::run_phase(result, config, phase_names::global_min_edge, [&] {
    return exchange_en(ctx, graph.num_vertices(), local_en, global_en.front(),
                       comm);
  });

  core::detail::finish_solve(
      graph, comm, config, seed_list, state, global_en, result, nullptr,
      [&](const core::cross_edge_map& pruned_en,
          std::vector<graph::weighted_edge>& tree) {
        return collect_tree_edges(ctx, dgraph, state, engine, pruned_en,
                                  tree);
      });
}

}  // namespace

core::steiner_result solve_rank(const graph::csr_graph& graph,
                                std::span<const graph::vertex_id> seeds,
                                const core::solver_config& config,
                                comm_backend& net, net_solve_report* report) {
  // Deterministic preprocessing — identical on every rank, so a rejected
  // seed list throws everywhere before any traffic flows.
  const std::vector<graph::vertex_id> seed_list =
      core::detail::dedup_seeds(graph, seeds);
  // Phase spans and probe rows go to rank 0's trace only, which keeps the
  // shared loopback trace single-writer. This is what makes distributed
  // cold solves show up in /tracez and the slow-query log.
  core::solver_config rank_config = config;
  if (net.rank() != 0) rank_config.trace = nullptr;
  rank_context ctx(rank_config, net);

  core::steiner_result result;
  result.num_seeds = seed_list.size();
  result.memory.graph_bytes = graph.memory_bytes();
  if (seed_list.size() > 1) solve_phases(graph, seed_list, ctx, result);
  if (report != nullptr) *report = ctx.take_report();
  return result;
}

core::steiner_result solve_loopback(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const core::solver_config& config, int world,
    std::vector<net_solve_report>* reports) {
  if (world <= 0) {
    throw std::invalid_argument("solve_loopback: world must be positive");
  }
  loopback_mesh mesh(world);
  std::vector<core::steiner_result> results(static_cast<std::size_t>(world));
  std::vector<net_solve_report> rank_reports(static_cast<std::size_t>(world));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));

  const auto run = [&](int rank) noexcept {
    try {
      results[static_cast<std::size_t>(rank)] =
          solve_rank(graph, seeds, config, mesh.endpoint(rank),
                     &rank_reports[static_cast<std::size_t>(rank)]);
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
      mesh.close_all();  // unblock peers so every rank unwinds
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world - 1));
  for (int rank = 1; rank < world; ++rank) {
    threads.emplace_back(run, rank);
  }
  run(0);
  for (std::thread& t : threads) t.join();

  // Prefer the root cause over the wire_errors peers see once the mesh is
  // torn down, and cancellation over everything (the service maps it).
  std::exception_ptr first;
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    if (!first) first = e;
    try {
      std::rethrow_exception(e);
    } catch (const util::operation_cancelled&) {
      first = e;
      break;
    } catch (const wire_error&) {
      // keep looking for a more specific cause
    } catch (...) {
      first = e;
    }
  }
  if (first) std::rethrow_exception(first);

  if (reports != nullptr) *reports = std::move(rank_reports);
  return std::move(results.front());
}

}  // namespace dsteiner::runtime::net

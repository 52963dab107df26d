#include "runtime/net/dist_solver.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/distance_graph.hpp"
#include "core/mst_prim.hpp"
#include "core/solver_detail.hpp"
#include "core/validation.hpp"
#include "graph/delta_stepping.hpp"
#include "runtime/comm.hpp"
#include "runtime/net/loopback_backend.hpp"
#include "runtime/net/termination.hpp"
#include "runtime/partition.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::runtime::net {

namespace {

/// Visitors per data frame: keeps frames far under k_max_payload_bytes while
/// amortising the 8-byte header (8192 * 32B = 256 KiB payloads).
constexpr std::size_t k_batch_records = 8192;

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point start) {
  return std::chrono::duration<double>(clock::now() - start).count();
}

/// Per-sample timing/traffic scratch for the telemetry plane, reset at each
/// superstep boundary.
struct telemetry_scratch {
  double compute_seconds = 0.0;
  double send_flush_seconds = 0.0;
  double recv_wait_seconds = 0.0;
  std::uint64_t visitors = 0;
  std::uint64_t remote_msgs = 0;
  std::vector<telemetry_peer_traffic> peers;
};

std::uint64_t to_nanos(double s) {
  return s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e9);
}

/// Shared mutable context for one rank's solve.
struct rank_ctx {
  const graph::csr_graph& graph;
  const core::solver_config& config;
  comm_backend& net;
  peer_channels chans;
  termination_vote vote;
  partitioner part;
  net_solve_report report;
  std::uint64_t modelled_epoch = 0;  ///< modelled bytes at last sample
  const bool telemetry_on;
  /// Rank 0 only (under loopback every rank shares one config, so gating on
  /// rank keeps the trace single-writer; rank 0 runs on the caller thread).
  obs::query_trace* const trace;
  telemetry_scratch scratch;
  std::vector<rank_telemetry> cluster_rx;  ///< rank 0: all ranks' samples

  rank_ctx(const graph::csr_graph& g, const core::solver_config& cfg,
           comm_backend& backend)
      : graph(g),
        config(cfg),
        net(backend),
        chans(backend),
        vote(chans),
        part(g.num_vertices(), backend.world_size(), cfg.scheme),
        telemetry_on(cfg.net_telemetry),
        trace(backend.rank() == 0 ? cfg.trace : nullptr) {
    report.rank = backend.rank();
    report.world = backend.world_size();
    scratch.peers.assign(static_cast<std::size_t>(backend.world_size()), {});
    if (telemetry_on && backend.rank() == 0) {
      chans.set_telemetry_sink([this](int /*from*/, frame& f) {
        cluster_rx.push_back(decode_telemetry(f));
      });
    }
  }

  [[nodiscard]] int rank() const noexcept { return net.rank(); }
  [[nodiscard]] int world() const noexcept { return net.world_size(); }
  [[nodiscard]] bool owns(graph::vertex_id v) const noexcept {
    return part.owner(v) == net.rank();
  }

  void send_all(const frame& f) {
    for (int peer = 0; peer < world(); ++peer) {
      if (peer != rank()) net.send(peer, f);
    }
  }

  void reset_scratch() {
    scratch.compute_seconds = 0.0;
    scratch.send_flush_seconds = 0.0;
    scratch.recv_wait_seconds = 0.0;
    scratch.visitors = 0;
    scratch.remote_msgs = 0;
    std::fill(scratch.peers.begin(), scratch.peers.end(),
              telemetry_peer_traffic{});
  }

  /// Sends one data frame, attributing its wire bytes to the current
  /// telemetry window's per-peer traffic. Control frames (markers, votes)
  /// bypass this on purpose — the plane reports application communication.
  void send_data(int peer, const frame& f) {
    if (telemetry_on) {
      telemetry_peer_traffic& t = scratch.peers[static_cast<std::size_t>(peer)];
      ++t.batches_sent;
      t.bytes_sent += wire_bytes(f);
    }
    net.send(peer, f);
  }

  /// until_marker wrapper counting received data frames into the window.
  std::uint32_t drain_until_marker(int peer,
                                   const std::function<void(frame&)>& fn) {
    return chans.until_marker(
        peer, frame_type::superstep_marker, [&](frame& f) {
          if (telemetry_on) {
            telemetry_peer_traffic& t =
                scratch.peers[static_cast<std::size_t>(peer)];
            ++t.batches_received;
            t.bytes_received += wire_bytes(f);
          }
          fn(f);
        });
  }

  /// Builds this window's sample from the scratch and routes it: rank 0
  /// keeps it locally, other ranks push it to rank 0 as a telemetry frame
  /// (its payload charged to the perf model like any other payload, so the
  /// modelled/measured invariants keep holding with telemetry on). Also
  /// mirrors an aggregate row into the rank-0 engine probe, which is what
  /// puts distributed solves into /tracez and the slow-query log.
  void emit_telemetry(telemetry_phase phase, std::uint32_t superstep,
                      std::uint64_t min_bucket, std::uint64_t ghost_labels,
                      double vote_seconds, std::uint64_t backlog) {
    if (trace != nullptr) {
      obs::superstep_sample probe_sample;
      probe_sample.superstep = superstep;
      probe_sample.rank = -1;  // aggregate row: this whole rank's superstep
      probe_sample.visitors = static_cast<std::uint32_t>(scratch.visitors);
      probe_sample.sent = static_cast<std::uint32_t>(scratch.remote_msgs);
      probe_sample.backlog = static_cast<std::uint32_t>(backlog);
      probe_sample.compute_seconds =
          static_cast<float>(scratch.compute_seconds);
      probe_sample.barrier_wait_seconds =
          static_cast<float>(scratch.recv_wait_seconds + vote_seconds);
      probe_sample.bucket = min_bucket;
      trace->probe().record(0, probe_sample);
    }
    if (!telemetry_on) return;
    rank_telemetry t;
    t.rank = rank();
    t.phase = static_cast<std::uint8_t>(phase);
    t.superstep = superstep;
    t.visitors = scratch.visitors;
    t.min_bucket = min_bucket;
    t.ghost_labels = ghost_labels;
    t.compute_nanos = to_nanos(scratch.compute_seconds);
    t.send_flush_nanos = to_nanos(scratch.send_flush_seconds);
    t.recv_wait_nanos = to_nanos(scratch.recv_wait_seconds);
    t.vote_nanos = to_nanos(vote_seconds);
    t.peers = scratch.peers;
    if (rank() != 0) {
      const frame f = encode_telemetry(t);
      report.bytes_modelled += f.payload.size();
      net.send(0, f);
    } else {
      cluster_rx.push_back(t);
    }
    report.telemetry.push_back(std::move(t));
  }

  /// One-shot exchange phases (ghost sync, EN reduce, gather) close their
  /// telemetry window with this instead of end_superstep: no vote ran.
  void emit_phase_telemetry(telemetry_phase phase,
                            std::uint64_t ghost_labels = 0) {
    emit_telemetry(phase, 0, UINT64_MAX, ghost_labels, 0.0, 0);
  }

  /// Records one (measured, modelled) traffic sample: wire bytes sent since
  /// `sent_before`, and modelled payload bytes since the previous sample.
  void record_traffic(std::uint32_t superstep, std::uint64_t sent_before) {
    net_superstep_sample sample;
    sample.superstep = superstep;
    sample.bytes_measured = net.stats().bytes_sent - sent_before;
    sample.bytes_modelled = report.bytes_modelled - modelled_epoch;
    modelled_epoch = report.bytes_modelled;
    report.samples.push_back(sample);
  }

  /// Closes one superstep: runs the termination vote, emits the telemetry
  /// sample, and records a (measured, modelled) traffic sample — in that
  /// order, so the telemetry frame's own bytes land in the same traffic
  /// sample as the superstep it describes. Throws operation_cancelled when
  /// the folded vote carries a cancel bit, keeping all ranks' unwinding in
  /// lockstep.
  vote_decision end_superstep(telemetry_phase phase, std::uint32_t superstep,
                              std::uint64_t outstanding,
                              std::uint64_t min_bucket,
                              std::uint64_t sent_before) {
    const auto vote_t0 = clock::now();
    const vote_decision decision = vote.round(
        outstanding,
        config.budget != nullptr && config.budget->stop_requested(),
        min_bucket, superstep);
    const double vote_seconds = seconds_since(vote_t0);
    ++report.supersteps;
    emit_telemetry(phase, superstep, min_bucket, 0, vote_seconds, outstanding);
    record_traffic(superstep, sent_before);
    if (decision.cancel) {
      // Our own budget's reason if it tripped; otherwise another rank
      // cancelled and "cancelled" is the only honest description.
      util::cancel_reason why = util::cancel_reason::cancelled;
      if (config.budget != nullptr) {
        const util::cancel_reason mine = config.budget->stop_reason();
        if (mine != util::cancel_reason::none) why = mine;
      }
      throw util::operation_cancelled(why);
    }
    return decision;
  }
};

/// Phase 1: distributed Voronoi cell growth. Each superstep relaxes the
/// rank's admitted frontier to a local fixed point (remote candidates batch
/// per owner), exchanges batches, then votes on termination. Under bucketed
/// growth only visitors in globally-open buckets are drained; the rest wait,
/// and the vote's min-fold decides the next bucket — the distributed
/// analogue of the threaded engine's bucket schedule.
phase_metrics run_voronoi(rank_ctx& ctx,
                                std::span<const graph::vertex_id> seed_list,
                                core::steiner_state& state,
                                core::growth_stats& growth) {
  phase_metrics metrics{};
  const auto t0 = clock::now();

  const bool bucketed = ctx.config.growth == growth_mode::bucketed;
  const std::uint64_t delta =
      bucketed ? (ctx.config.bucket_delta != 0
                      ? ctx.config.bucket_delta
                      : graph::heuristic_delta(ctx.graph))
               : 0;
  growth.mode = ctx.config.growth;
  growth.delta = delta;
  const auto bucket_of = [&](graph::weight_t r) {
    return bucketed ? r / delta : 0;
  };

  std::vector<net_visitor> pending;
  for (const graph::vertex_id s : seed_list) {
    if (ctx.owns(s)) pending.push_back(net_visitor{s, s, s, 0});
  }

  std::vector<std::vector<net_visitor>> outbox(
      static_cast<std::size_t>(ctx.world()));
  // The local drain settles in lexicographic (r, t, vp) order — the paper's
  // priority-queue scheduling (Fig. 5). Any drain order reaches the same
  // fixed point (bit-identity does not depend on it), but FIFO/LIFO chaotic
  // relaxation re-corrects each vertex O(paths) times on weighted graphs and
  // the correction cascade amplifies across ranks; distance order settles
  // most vertices once per superstep.
  const auto visitor_after = [](const net_visitor& a, const net_visitor& b) {
    return std::tuple{a.r, a.t, a.vp} > std::tuple{b.r, b.t, b.vp};
  };
  std::priority_queue<net_visitor, std::vector<net_visitor>,
                      decltype(visitor_after)>
      worklist(visitor_after);
  std::vector<net_visitor> deferred;
  std::uint64_t bucket_limit = 0;  // seeds start in bucket 0

  for (std::uint32_t superstep = 0;; ++superstep) {
    const std::uint64_t sent_before = ctx.net.stats().bytes_sent;
    ctx.reset_scratch();
    const std::uint64_t visitors_before = metrics.visitors_processed;
    const std::uint64_t remote_before = metrics.messages_remote;
    const auto compute_t0 = clock::now();

    // Split the backlog into this superstep's open buckets and the rest.
    deferred.clear();
    for (net_visitor& v : pending) {
      if (bucket_of(v.r) <= bucket_limit) {
        worklist.push(v);
      } else {
        deferred.push_back(v);
      }
    }
    pending.swap(deferred);
    if (bucketed && !worklist.empty()) ++growth.buckets_processed;

    // Drain to a local fixed point; cross-partition candidates batch up.
    while (!worklist.empty()) {
      const net_visitor v = worklist.top();
      worklist.pop();
      if (std::tuple{v.r, v.t, v.vp} >= state.tuple_of(v.vj)) {
        ++metrics.previsit_rejections;
        continue;
      }
      state.distance[v.vj] = v.r;
      state.src[v.vj] = v.t;
      state.pred[v.vj] = v.vp;
      ++metrics.visitors_processed;
      const auto neighbors = ctx.graph.neighbors(v.vj);
      const auto weights = ctx.graph.weights(v.vj);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const net_visitor cand{neighbors[i], v.vj, v.t, v.r + weights[i]};
        if (std::tuple{cand.r, cand.t, cand.vp} >= state.tuple_of(cand.vj)) {
          continue;  // already superseded — never admissible later
        }
        if (ctx.owns(cand.vj)) {
          ++metrics.messages_local;
          if (bucket_of(cand.r) <= bucket_limit) {
            worklist.push(cand);
          } else {
            pending.push_back(cand);
          }
        } else {
          ++metrics.messages_remote;
          outbox[static_cast<std::size_t>(ctx.part.owner(cand.vj))]
              .push_back(cand);
        }
      }
    }

    ctx.scratch.compute_seconds = seconds_since(compute_t0);
    ctx.scratch.visitors = metrics.visitors_processed - visitors_before;
    ctx.scratch.remote_msgs = metrics.messages_remote - remote_before;

    // Flush batches, then the marker that bounds this superstep's data.
    const auto flush_t0 = clock::now();
    for (int peer = 0; peer < ctx.world(); ++peer) {
      auto& out = outbox[static_cast<std::size_t>(peer)];
      if (peer != ctx.rank()) {
        for (std::size_t begin = 0; begin < out.size();
             begin += k_batch_records) {
          const std::size_t end =
              std::min(begin + k_batch_records, out.size());
          ctx.send_data(peer,
                        encode_visitor_batch(std::span(out).subspan(
                            begin, end - begin)));
        }
        ctx.report.bytes_modelled += out.size() * 32;
        ctx.net.send(peer, make_marker(superstep));
      }
      out.clear();
    }
    ctx.scratch.send_flush_seconds = seconds_since(flush_t0);

    // Park everything the peers sent this superstep into the backlog,
    // dropping candidates the local state already beats.
    const auto recv_t0 = clock::now();
    for (int peer = 0; peer < ctx.world(); ++peer) {
      if (peer == ctx.rank()) continue;
      ctx.drain_until_marker(peer, [&](frame& f) {
        for (const net_visitor& v : decode_visitor_batch(f)) {
          if (std::tuple{v.r, v.t, v.vp} < state.tuple_of(v.vj)) {
            pending.push_back(v);
          } else {
            ++metrics.previsit_rejections;
          }
        }
      });
    }
    ctx.scratch.recv_wait_seconds = seconds_since(recv_t0);

    metrics.queue_peak_items = std::max(
        metrics.queue_peak_items, static_cast<std::uint64_t>(pending.size()));
    ++metrics.rounds;

    std::uint64_t min_bucket = UINT64_MAX;
    for (const net_visitor& v : pending) {
      min_bucket = std::min(min_bucket, bucket_of(v.r));
    }
    const vote_decision decision = ctx.end_superstep(
        telemetry_phase::voronoi, superstep, pending.size(), min_bucket,
        sent_before);
    if (decision.stop) break;
    bucket_limit = bucketed ? decision.min_bucket : 0;
  }

  metrics.queue_peak_bytes = metrics.queue_peak_items * sizeof(net_visitor);
  metrics.wall_seconds = seconds_since(t0);
  return metrics;
}

/// Boundary label sync between phases 1 and 2: each owned, reached vertex's
/// (src, d1) goes to every other rank owning one of its neighbours — exactly
/// the remote reads of the cross-edge scan. pred is deliberately not synced:
/// walk-backs only ever dereference pred on the owner.
void sync_ghosts(rank_ctx& ctx, core::steiner_state& state,
                 phase_metrics& metrics) {
  const std::uint64_t sent_before = ctx.net.stats().bytes_sent;
  ctx.reset_scratch();
  const std::uint64_t ghosts_before = ctx.report.ghost_labels_sent;
  const auto compute_t0 = clock::now();
  std::vector<std::vector<ghost_label>> out(
      static_cast<std::size_t>(ctx.world()));
  std::vector<std::uint8_t> dest_mark(static_cast<std::size_t>(ctx.world()), 0);
  const graph::vertex_id n = ctx.graph.num_vertices();
  for (graph::vertex_id v = 0; v < n; ++v) {
    if (!ctx.owns(v) || !state.reached(v)) continue;
    std::fill(dest_mark.begin(), dest_mark.end(), 0);
    for (const graph::vertex_id u : ctx.graph.neighbors(v)) {
      const int owner = ctx.part.owner(u);
      if (owner == ctx.rank() || dest_mark[static_cast<std::size_t>(owner)]) {
        continue;
      }
      dest_mark[static_cast<std::size_t>(owner)] = 1;
      out[static_cast<std::size_t>(owner)].push_back(
          ghost_label{v, state.src[v], state.distance[v]});
    }
  }
  ctx.scratch.compute_seconds = seconds_since(compute_t0);
  const auto flush_t0 = clock::now();
  for (int peer = 0; peer < ctx.world(); ++peer) {
    auto& labels = out[static_cast<std::size_t>(peer)];
    if (peer != ctx.rank()) {
      for (std::size_t begin = 0; begin < labels.size();
           begin += k_batch_records) {
        const std::size_t end = std::min(begin + k_batch_records, labels.size());
        ctx.send_data(peer, encode_ghost_batch(
                                std::span(labels).subspan(begin, end - begin)));
      }
      ctx.report.ghost_labels_sent += labels.size();
      ctx.report.bytes_modelled += labels.size() * 24;
      metrics.messages_remote += labels.size();
      ctx.net.send(peer, make_marker(0));
    }
    labels.clear();
  }
  ctx.scratch.send_flush_seconds = seconds_since(flush_t0);
  const auto recv_t0 = clock::now();
  for (int peer = 0; peer < ctx.world(); ++peer) {
    if (peer == ctx.rank()) continue;
    ctx.drain_until_marker(peer, [&](frame& f) {
      for (const ghost_label& g : decode_ghost_batch(f)) {
        state.distance[g.v] = g.dist;
        state.src[g.v] = g.src;
        ++ctx.report.ghost_labels_applied;
      }
    });
  }
  ctx.scratch.recv_wait_seconds = seconds_since(recv_t0);
  ctx.emit_phase_telemetry(telemetry_phase::ghost_sync,
                           ctx.report.ghost_labels_sent - ghosts_before);
  ctx.record_traffic(0, sent_before);
}

/// Phase 2: partition-local cross-cell minimum bridges. Each undirected edge
/// is probed exactly once globally — at the owner of its lower endpoint,
/// whose ghost table holds the higher endpoint's label after sync_ghosts.
phase_metrics scan_local_min_edges(rank_ctx& ctx,
                                         const core::steiner_state& state,
                                         core::cross_edge_map& local_en) {
  phase_metrics metrics{};
  const auto t0 = clock::now();
  const graph::vertex_id n = ctx.graph.num_vertices();
  for (graph::vertex_id u = 0; u < n; ++u) {
    if (!ctx.owns(u) || !state.reached(u)) continue;
    const auto neighbors = ctx.graph.neighbors(u);
    const auto weights = ctx.graph.weights(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const graph::vertex_id vt = neighbors[i];
      if (u >= vt || !state.reached(vt)) continue;
      if (state.src[u] == state.src[vt]) continue;
      ++metrics.visitors_processed;
      const core::cross_edge_entry candidate{
          state.distance[u] + weights[i] + state.distance[vt],
          std::min(u, vt), std::max(u, vt), weights[i]};
      const core::seed_pair key{std::min(state.src[u], state.src[vt]),
                                std::max(state.src[u], state.src[vt])};
      const auto [it, inserted] = local_en.emplace(key, candidate);
      if (!inserted) it->second = core::min_entry(it->second, candidate);
    }
  }
  metrics.rounds = 1;
  metrics.wall_seconds = seconds_since(t0);
  return metrics;
}

/// Phase 3: all-to-all exchange of the per-rank EN maps and a lexicographic
/// min-merge — the wire realisation of Allreduce(MIN) over EN. The merged
/// map's *content* is identical on every rank (min is order-free), which is
/// all downstream phases read: they iterate bridges in sorted key order.
phase_metrics reduce_global_en(rank_ctx& ctx,
                                     const core::cross_edge_map& local_en,
                                     core::cross_edge_map& global_en,
                                     const runtime::communicator& comm) {
  phase_metrics metrics{};
  const auto t0 = clock::now();
  const std::uint64_t sent_before = ctx.net.stats().bytes_sent;
  ctx.reset_scratch();

  const auto compute_t0 = clock::now();
  std::vector<wire_en_entry> wire;
  wire.reserve(local_en.size());
  for (const auto& [key, entry] : local_en) {
    wire.push_back(wire_en_entry{key.first, key.second, entry.bridge_distance,
                                 entry.u, entry.v, entry.edge_weight});
  }
  ctx.scratch.compute_seconds = seconds_since(compute_t0);
  const auto flush_t0 = clock::now();
  for (int peer = 0; peer < ctx.world(); ++peer) {
    if (peer == ctx.rank()) continue;
    for (std::size_t begin = 0; begin < wire.size();
         begin += k_batch_records) {
      const std::size_t end = std::min(begin + k_batch_records, wire.size());
      ctx.send_data(peer, encode_en_batch(
                              std::span(wire).subspan(begin, end - begin)));
    }
    ctx.net.send(peer, make_marker(0));
  }
  ctx.report.bytes_modelled +=
      wire.size() * 48 * static_cast<std::uint64_t>(ctx.world() - 1);
  ctx.scratch.send_flush_seconds = seconds_since(flush_t0);

  global_en = local_en;
  const auto merge = [&](const wire_en_entry& e) {
    const core::cross_edge_entry entry{e.bridge_distance, e.u, e.v,
                                       e.edge_weight};
    const auto [it, inserted] =
        global_en.emplace(core::seed_pair{e.seed_a, e.seed_b}, entry);
    if (!inserted) it->second = core::min_entry(it->second, entry);
  };
  const auto recv_t0 = clock::now();
  for (int peer = 0; peer < ctx.world(); ++peer) {
    if (peer == ctx.rank()) continue;
    ctx.drain_until_marker(peer, [&](frame& f) {
      for (const wire_en_entry& e : decode_en_batch(f)) merge(e);
    });
  }
  ctx.scratch.recv_wait_seconds = seconds_since(recv_t0);
  ctx.emit_phase_telemetry(telemetry_phase::en_reduce);

  // Simulated-clock accounting mirrors the in-process collective: the
  // reduced map is the payload every rank ends up holding.
  constexpr std::uint64_t entry_bytes =
      sizeof(core::seed_pair) + sizeof(core::cross_edge_entry);
  comm.charge_collective(global_en.size() * entry_bytes, metrics);
  comm.note_buffer_bytes(global_en.size() * entry_bytes);

  ctx.record_traffic(0, sent_before);
  metrics.wall_seconds = seconds_since(t0);
  return metrics;
}

/// Phase 6: pred walk-backs from the surviving bridges, BSP over walk_batch
/// frames. Every rank derives the same bridge list (global_en is identical),
/// seeds its own endpoints, and marks/walks only owned vertices.
phase_metrics run_tree_edges(rank_ctx& ctx,
                                   const core::cross_edge_map& pruned_en,
                                   const core::steiner_state& state,
                                   std::vector<graph::weighted_edge>& local_es) {
  phase_metrics metrics{};
  const auto t0 = clock::now();

  std::vector<std::pair<core::seed_pair, core::cross_edge_entry>> bridges(
      pruned_en.begin(), pruned_en.end());
  std::sort(bridges.begin(), bridges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::uint8_t> in_tree(ctx.graph.num_vertices(), 0);
  std::vector<graph::vertex_id> worklist;
  for (const auto& [key, entry] : bridges) {
    if (ctx.owns(entry.u)) {
      local_es.push_back(
          graph::weighted_edge{entry.u, entry.v, entry.edge_weight});
      worklist.push_back(entry.u);
    }
    if (ctx.owns(entry.v)) worklist.push_back(entry.v);
  }

  std::vector<std::vector<graph::vertex_id>> outbox(
      static_cast<std::size_t>(ctx.world()));
  std::vector<graph::vertex_id> next;
  for (std::uint32_t superstep = 0;; ++superstep) {
    const std::uint64_t sent_before = ctx.net.stats().bytes_sent;
    ctx.reset_scratch();
    const std::uint64_t visitors_before = metrics.visitors_processed;
    const std::uint64_t remote_before = metrics.messages_remote;
    const auto compute_t0 = clock::now();
    while (!worklist.empty()) {
      const graph::vertex_id vj = worklist.back();
      worklist.pop_back();
      if (in_tree[vj] != 0) {
        ++metrics.previsit_rejections;
        continue;
      }
      in_tree[vj] = 1;
      ++metrics.visitors_processed;
      if (vj == state.src[vj]) continue;  // reached the cell's seed
      const graph::vertex_id p = state.pred[vj];
      const auto w = ctx.graph.edge_weight(vj, p);
      if (!w.has_value()) {
        throw std::logic_error("tree walk-back crossed a missing edge");
      }
      local_es.push_back(
          graph::weighted_edge{std::min(p, vj), std::max(p, vj), *w});
      if (p == state.src[vj]) continue;  // next hop is the seed: edge covers it
      if (ctx.owns(p)) {
        ++metrics.messages_local;
        worklist.push_back(p);
      } else {
        ++metrics.messages_remote;
        outbox[static_cast<std::size_t>(ctx.part.owner(p))].push_back(p);
      }
    }

    ctx.scratch.compute_seconds = seconds_since(compute_t0);
    ctx.scratch.visitors = metrics.visitors_processed - visitors_before;
    ctx.scratch.remote_msgs = metrics.messages_remote - remote_before;

    const auto flush_t0 = clock::now();
    for (int peer = 0; peer < ctx.world(); ++peer) {
      auto& out = outbox[static_cast<std::size_t>(peer)];
      if (peer != ctx.rank()) {
        for (std::size_t begin = 0; begin < out.size();
             begin += k_batch_records) {
          const std::size_t end = std::min(begin + k_batch_records, out.size());
          ctx.send_data(peer, encode_walk_batch(std::span(out).subspan(
                                  begin, end - begin)));
        }
        ctx.report.bytes_modelled += out.size() * 8;
        ctx.net.send(peer, make_marker(superstep));
      }
      out.clear();
    }
    ctx.scratch.send_flush_seconds = seconds_since(flush_t0);
    next.clear();
    const auto recv_t0 = clock::now();
    for (int peer = 0; peer < ctx.world(); ++peer) {
      if (peer == ctx.rank()) continue;
      ctx.drain_until_marker(peer, [&](frame& f) {
        for (const graph::vertex_id v : decode_walk_batch(f)) {
          if (in_tree[v] == 0) next.push_back(v);
        }
      });
    }
    ctx.scratch.recv_wait_seconds = seconds_since(recv_t0);
    worklist.swap(next);
    ++metrics.rounds;
    const vote_decision decision = ctx.end_superstep(
        telemetry_phase::tree_walk, superstep, worklist.size(), UINT64_MAX,
        sent_before);
    if (decision.stop) break;
  }
  metrics.wall_seconds = seconds_since(t0);
  return metrics;
}

/// Final assembly: allgather the per-rank edge lists and canonically sort.
phase_metrics gather_tree(rank_ctx& ctx,
                                std::vector<graph::weighted_edge>& local_es,
                                std::vector<graph::weighted_edge>& tree) {
  phase_metrics metrics{};
  const auto t0 = clock::now();
  const std::uint64_t sent_before = ctx.net.stats().bytes_sent;
  ctx.reset_scratch();
  const auto flush_t0 = clock::now();
  for (int peer = 0; peer < ctx.world(); ++peer) {
    if (peer == ctx.rank()) continue;
    for (std::size_t begin = 0; begin < local_es.size();
         begin += k_batch_records) {
      const std::size_t end = std::min(begin + k_batch_records, local_es.size());
      ctx.send_data(peer, encode_edge_batch(std::span(local_es).subspan(
                              begin, end - begin)));
    }
  }
  ctx.report.bytes_modelled +=
      local_es.size() * 24 * static_cast<std::uint64_t>(ctx.world() - 1);
  ctx.scratch.send_flush_seconds = seconds_since(flush_t0);
  // This is the last exchange of the solve, so the sample must precede the
  // markers: per-peer FIFO then guarantees rank 0 absorbs it while draining
  // to our marker below. The cost is that gather samples carry no recv_wait
  // (the drain has not happened yet when they are emitted).
  ctx.emit_phase_telemetry(telemetry_phase::gather);
  for (int peer = 0; peer < ctx.world(); ++peer) {
    if (peer != ctx.rank()) ctx.net.send(peer, make_marker(0));
  }

  tree = std::move(local_es);
  for (int peer = 0; peer < ctx.world(); ++peer) {
    if (peer == ctx.rank()) continue;
    ctx.drain_until_marker(peer, [&](frame& f) {
      for (const graph::weighted_edge& e : decode_edge_batch(f)) {
        tree.push_back(e);
      }
    });
  }
  std::sort(tree.begin(), tree.end(),
            [](const graph::weighted_edge& a, const graph::weighted_edge& b) {
              return std::tuple{a.source, a.target} <
                     std::tuple{b.source, b.target};
            });
  ctx.record_traffic(0, sent_before);
  metrics.wall_seconds = seconds_since(t0);
  return metrics;
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

  core::steiner_result result;
  result.num_seeds = seed_list.size();
  rank_ctx ctx(graph, config, net);

  if (seed_list.size() > 1) {
    core::steiner_state state(graph.num_vertices());
    {
      // Phase spans go to ctx.trace — non-null only on rank 0, which keeps
      // the shared loopback trace single-writer. This is what makes
      // distributed cold solves show up in /tracez and the slow-query log.
      core::detail::phase_span span(ctx.trace, phase_names::voronoi,
                                    config.costs);
      result.phases.phase(phase_names::voronoi) =
          run_voronoi(ctx, seed_list, state, result.growth);
      span.close(result.phases.phase(phase_names::voronoi));
    }

    auto& local_metrics = result.phases.phase(phase_names::local_min_edge);
    core::cross_edge_map local_en;
    {
      core::detail::phase_span span(ctx.trace, phase_names::local_min_edge,
                                    config.costs);
      sync_ghosts(ctx, state, local_metrics);
      phase_metrics scan = scan_local_min_edges(ctx, state, local_en);
      scan.messages_remote += local_metrics.messages_remote;
      local_metrics = scan;
      span.close(local_metrics);
    }
    if (config.budget != nullptr) config.budget->check();

    const runtime::communicator comm(ctx.world(), config.costs);
    core::cross_edge_map global_en;
    {
      core::detail::phase_span span(ctx.trace, phase_names::global_min_edge,
                                    config.costs);
      result.phases.phase(phase_names::global_min_edge) =
          reduce_global_en(ctx, local_en, global_en, comm);
      span.close(result.phases.phase(phase_names::global_min_edge));
    }
    result.distance_graph_edges = global_en.size();

    auto& mst_metrics = result.phases.phase(phase_names::mst);
    {
      core::detail::phase_span span(ctx.trace, phase_names::mst, config.costs);
      const auto mst_t0 = clock::now();
      const core::distance_graph_mst mst = core::compute_distance_graph_mst(
          global_en, seed_list, comm, mst_metrics);
      mst_metrics.wall_seconds = seconds_since(mst_t0);
      span.close(mst_metrics);
      result.spans_all_seeds = mst.spans_all_seeds;
      if (!mst.spans_all_seeds && !config.allow_disconnected_seeds) {
        throw std::runtime_error("seeds are not mutually reachable");
      }

      auto& prune_metrics = result.phases.phase(phase_names::pruning);
      core::detail::phase_span prune_span(ctx.trace, phase_names::pruning,
                                          config.costs);
      const auto prune_t0 = clock::now();
      {
        const std::set<core::seed_pair> keep(mst.mst_pairs.begin(),
                                             mst.mst_pairs.end());
        std::erase_if(global_en, [&](const auto& kv) {
          return keep.find(kv.first) == keep.end();
        });
        constexpr std::uint64_t entry_bytes =
            sizeof(core::seed_pair) + sizeof(core::cross_edge_entry);
        comm.charge_collective(global_en.size() * entry_bytes, prune_metrics);
      }
      prune_metrics.wall_seconds = seconds_since(prune_t0);
      prune_span.close(prune_metrics);
    }
    if (config.budget != nullptr) config.budget->check();

    std::vector<graph::weighted_edge> local_es;
    {
      core::detail::phase_span span(ctx.trace, phase_names::tree_edge,
                                    config.costs);
      result.phases.phase(phase_names::tree_edge) =
          run_tree_edges(ctx, global_en, state, local_es);

      phase_metrics gather =
          gather_tree(ctx, local_es, result.tree_edges);
      result.phases.phase(phase_names::tree_edge).merge(gather);
      span.close(result.phases.phase(phase_names::tree_edge));
    }

    for (const graph::weighted_edge& e : result.tree_edges) {
      result.total_distance += e.weight;
    }

    result.memory.graph_bytes = graph.memory_bytes();
    result.memory.state_bytes =
        state.memory_bytes() + graph.num_vertices() * sizeof(std::uint8_t);
    result.memory.queue_peak_bytes =
        result.phases.phase(phase_names::voronoi).queue_peak_bytes;
    result.memory.distance_graph_bytes =
        global_en.size() *
        (sizeof(core::seed_pair) + sizeof(core::cross_edge_entry));
    result.memory.collective_buffer_bytes = comm.peak_buffer_bytes();
    result.memory.tree_bytes =
        result.tree_edges.size() * sizeof(graph::weighted_edge);

    if (config.validate) {
      const core::validation_result check =
          core::validate_steiner_tree(graph, seed_list, result.tree_edges);
      if (!check) {
        throw std::runtime_error("distributed solve failed validation: " +
                                 check.error);
      }
    }
  } else {
    result.memory.graph_bytes = graph.memory_bytes();
  }

  ctx.report.vote_rounds = ctx.vote.rounds();
  ctx.report.stats = net.stats();
  if (ctx.telemetry_on && ctx.rank() == 0) {
    ctx.report.cluster =
        merge_cluster_samples(ctx.world(), std::move(ctx.cluster_rx));
  }
  if (report != nullptr) *report = std::move(ctx.report);
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

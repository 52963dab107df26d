// The superstep engine: core's Handler/Visitor contract (see
// runtime/visitor_engine.hpp) run by one rank of a comm_backend mesh, the
// third transport beside the cooperative and threaded engines. A superstep:
//   1. drain the mailbox (engine_config::policy) to a local fixed point.
//      Emissions to this rank pass pre_visit at once; emissions to other
//      ranks are encoded straight into a per-owner frame, sent whenever it
//      fills;
//   2. send the partial frames and a marker; every peer's visitors up to
//      its marker pass pre_visit into the mailbox;
//   3. rank_context::end_superstep: the termination vote (outstanding sum,
//      cancel OR, max work), telemetry and traffic samples.
// Simulated work uses the threaded engine's charges, derived from the
// counters once per superstep; the vote's max-fold adds the critical path to
// sim_units. Every other phase_metrics counter is this rank's own.
//
// rank_context is the rank's side of the mesh that every net phase shares:
// per-peer channels, the chunked exchange, the termination vote, and the
// observation around them (telemetry and traffic samples). A phase opens a
// window with begin_window() and closes it with end_superstep() (the
// engine's voting supersteps) or emit_phase_telemetry() + record_traffic()
// (one-shot exchanges: ghost sync, EN reduce, gather).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/tree_edges.hpp"
#include "core/voronoi.hpp"
#include "obs/trace.hpp"
#include "runtime/engine_config.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/net/cluster_telemetry.hpp"
#include "runtime/net/comm_backend.hpp"
#include "runtime/net/dist_solver.hpp"
#include "runtime/net/frame.hpp"
#include "runtime/net/termination.hpp"
#include "runtime/partition.hpp"
#include "runtime/perf_model.hpp"
#include "util/cancellation.hpp"
#include "util/timer.hpp"

namespace dsteiner::runtime::net {

/// Records per data frame: keeps frames far under k_max_payload_bytes while
/// amortising the 8-byte header (8192 * 32B = 256 KiB payloads).
inline constexpr std::size_t k_batch_records = 8192;

/// Per-window timing/traffic scratch for the telemetry plane.
struct telemetry_scratch {
  double compute_seconds = 0.0;
  double send_flush_seconds = 0.0;
  double recv_wait_seconds = 0.0;
  std::uint64_t visitors = 0;
  std::uint64_t remote_msgs = 0;
  std::vector<telemetry_peer_traffic> peers;
};

class rank_context {
 public:
  /// `config.trace` must be null on every rank but 0: under loopback all
  /// ranks share one config, and one writer keeps the trace consistent.
  rank_context(const core::solver_config& cfg, comm_backend& backend)
      : config(cfg),
        net_(backend),
        chans_(backend),
        vote_(chans_),
        telemetry_on_(cfg.net_telemetry) {
    report.rank = backend.rank();
    report.world = backend.world_size();
    scratch.peers.resize(static_cast<std::size_t>(backend.world_size()));
    if (telemetry_on_ && backend.rank() == 0) {
      chans_.set_telemetry_sink([this](int /*from*/, frame& f) {
        cluster_rx_.push_back(decode_telemetry(f));
      });
    }
  }

  rank_context(const rank_context&) = delete;
  rank_context& operator=(const rank_context&) = delete;

  [[nodiscard]] int rank() const noexcept { return net_.rank(); }
  [[nodiscard]] int world() const noexcept { return net_.world_size(); }

  /// Opens a telemetry/traffic window: clears the scratch and returns the
  /// wire bytes sent so far (the window's `sent_before`).
  std::uint64_t begin_window() {
    scratch = telemetry_scratch{};
    scratch.peers.resize(static_cast<std::size_t>(world()));
    return net_.stats().bytes_sent;
  }

  /// Sends one data frame to `peer`, charging its payload to the perf model
  /// and its wire bytes to the window's per-peer traffic. Markers and votes
  /// are control traffic and bypass this.
  void send_data(int peer, const frame& f) {
    telemetry_peer_traffic& t = scratch.peers[static_cast<std::size_t>(peer)];
    ++t.batches_sent;
    t.bytes_sent += wire_bytes(f);
    report.bytes_modelled += f.payload.size();
    net_.send(peer, f);
  }

  /// Ends this rank's side of an exchange: a marker tagged `superstep` to
  /// every peer, then every peer's data frames up to its marker to
  /// `on_frame`, in peer order (timed as the window's receive wait).
  void finish_exchange(std::uint32_t superstep,
                       const std::function<void(frame&)>& on_frame) {
    for (int peer = 0; peer < world(); ++peer) {
      if (peer != rank()) net_.send(peer, make_marker(superstep));
    }
    const util::timer recv_timer;
    for (int peer = 0; peer < world(); ++peer) {
      if (peer == rank()) continue;
      telemetry_peer_traffic& t = scratch.peers[static_cast<std::size_t>(peer)];
      chans_.until_marker(peer, frame_type::superstep_marker, [&](frame& f) {
        ++t.batches_received;
        t.bytes_received += wire_bytes(f);
        on_frame(f);
      });
    }
    scratch.recv_wait_seconds = recv_timer.seconds();
  }

  /// A whole one-shot exchange: `records(peer)` (a span) goes to each peer
  /// in frames of at most k_batch_records records built by `encode`;
  /// `before_markers`, when set, runs next; then finish_exchange.
  template <typename Records, typename Encode>
  void exchange(Records records, Encode encode,
                const std::function<void(frame&)>& on_frame,
                const std::function<void()>& before_markers = {}) {
    const util::timer flush_timer;
    for (int peer = 0; peer < world(); ++peer) {
      if (peer == rank()) continue;
      const auto items = records(peer);
      for (std::size_t begin = 0; begin < items.size();
           begin += k_batch_records) {
        send_data(peer, encode(items.subspan(
                            begin, std::min(k_batch_records,
                                            items.size() - begin))));
      }
    }
    scratch.send_flush_seconds = flush_timer.seconds();
    if (before_markers) before_markers();
    finish_exchange(0, on_frame);
  }

  /// Closes a one-shot exchange's telemetry window (no vote ran).
  void emit_phase_telemetry(telemetry_phase phase,
                            std::uint64_t ghost_labels = 0) {
    emit_telemetry(phase, 0, ghost_labels, 0.0, 0);
  }

  /// Records one (measured, modelled) traffic sample: wire bytes sent since
  /// `sent_before`, and modelled payload bytes since the previous sample.
  void record_traffic(std::uint32_t superstep, std::uint64_t sent_before) {
    net_superstep_sample sample;
    sample.superstep = superstep;
    sample.bytes_measured = net_.stats().bytes_sent - sent_before;
    sample.bytes_modelled = report.bytes_modelled - modelled_epoch_;
    modelled_epoch_ = report.bytes_modelled;
    report.samples.push_back(sample);
  }

  /// Closes one superstep: runs the termination vote (folding `work`, this
  /// rank's simulated work), emits the telemetry sample, and records a
  /// traffic sample — in that order, so the telemetry frame's own bytes land
  /// in the same traffic sample as the superstep it describes. Throws
  /// operation_cancelled when the folded vote carries a cancel bit, keeping
  /// all ranks' unwinding in lockstep.
  vote_decision end_superstep(telemetry_phase phase, std::uint32_t superstep,
                              std::uint64_t outstanding,
                              std::uint64_t sent_before, double work) {
    const util::timer vote_timer;
    const vote_decision decision = vote_.round(
        outstanding, config.budget != nullptr && config.budget->stop_requested(),
        superstep, work);
    const double vote_seconds = vote_timer.seconds();
    ++report.supersteps;
    emit_telemetry(phase, superstep, 0, vote_seconds, outstanding);
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

  /// Moves the finished report out: vote rounds, backend counters and, on
  /// rank 0 with telemetry on, every rank's samples merged.
  [[nodiscard]] net_solve_report take_report() {
    report.vote_rounds = vote_.rounds();
    report.stats = net_.stats();
    if (telemetry_on_ && rank() == 0) {
      report.cluster = merge_cluster_samples(world(), std::move(cluster_rx_));
    }
    return std::move(report);
  }

  const core::solver_config& config;
  net_solve_report report;
  telemetry_scratch scratch;

 private:
  /// Builds this window's sample from the scratch and routes it: rank 0
  /// keeps it locally, other ranks push it to rank 0 as a telemetry frame
  /// (its payload charged to the perf model like any other payload, so the
  /// modelled/measured invariants keep holding with telemetry on). Also
  /// mirrors an aggregate row into the rank-0 engine probe, which is what
  /// puts distributed solves into /tracez and the slow-query log.
  void emit_telemetry(telemetry_phase phase, std::uint32_t superstep,
                      std::uint64_t ghost_labels, double vote_seconds,
                      std::uint64_t backlog) {
    if (config.trace != nullptr) {
      obs::superstep_sample probe_sample;
      probe_sample.superstep = superstep;
      probe_sample.rank = -1;  // aggregate row: this whole rank's superstep
      probe_sample.visitors = static_cast<std::uint32_t>(scratch.visitors);
      probe_sample.sent = static_cast<std::uint32_t>(scratch.remote_msgs);
      probe_sample.backlog = static_cast<std::uint32_t>(backlog);
      probe_sample.compute_seconds = static_cast<float>(scratch.compute_seconds);
      probe_sample.barrier_wait_seconds =
          static_cast<float>(scratch.recv_wait_seconds + vote_seconds);
      config.trace->probe().record(0, probe_sample);
    }
    if (!telemetry_on_) return;
    rank_telemetry t;
    t.rank = rank();
    t.phase = static_cast<std::uint8_t>(phase);
    t.superstep = superstep;
    t.visitors = scratch.visitors;
    t.ghost_labels = ghost_labels;
    t.compute_nanos = to_nanos(scratch.compute_seconds);
    t.send_flush_nanos = to_nanos(scratch.send_flush_seconds);
    t.recv_wait_nanos = to_nanos(scratch.recv_wait_seconds);
    t.vote_nanos = to_nanos(vote_seconds);
    t.peers = scratch.peers;
    if (rank() != 0) {
      const frame f = encode_telemetry(t);
      report.bytes_modelled += f.payload.size();
      net_.send(0, f);
    } else {
      cluster_rx_.push_back(t);
    }
    report.telemetry.push_back(std::move(t));
  }

  static std::uint64_t to_nanos(double s) {
    return s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e9);
  }

  comm_backend& net_;
  peer_channels chans_;
  termination_vote vote_;
  const bool telemetry_on_;
  std::uint64_t modelled_epoch_ = 0;  ///< modelled bytes at the last sample
  std::vector<rank_telemetry> cluster_rx_;  ///< rank 0: all ranks' samples
};

/// Frame type and record codec per visitor type.
template <typename Visitor>
struct wire_codec;

template <>
struct wire_codec<core::voronoi_visitor> {
  static constexpr frame_type type = frame_type::visitor_batch;
  static constexpr std::size_t record_bytes = 32;
  static void append(std::vector<std::uint8_t>& payload,
                     const core::voronoi_visitor& v) {
    append_visitor(payload, v);
  }
  static std::vector<core::voronoi_visitor> decode(const frame& f) {
    return decode_visitor_batch(f);
  }
};

template <>
struct wire_codec<core::tree_edge_visitor> {
  static constexpr frame_type type = frame_type::walk_batch;
  static constexpr std::size_t record_bytes = 8;
  static void append(std::vector<std::uint8_t>& payload,
                     const core::tree_edge_visitor& v) {
    append_walk(payload, v.vj);
  }
  static std::vector<core::tree_edge_visitor> decode(const frame& f) {
    std::vector<core::tree_edge_visitor> out;
    for (const graph::vertex_id v : decode_walk_batch(f)) out.push_back({v});
    return out;
  }
};

template <typename Visitor, typename Handler>
class superstep_engine {
  using codec = wire_codec<Visitor>;

 public:
  superstep_engine(rank_context& ctx, const partitioner& parts,
                   Handler& handler, const engine_config& config,
                   telemetry_phase phase)
      : ctx_(ctx),
        parts_(parts),
        handler_(handler),
        costs_(config.costs),
        phase_(phase),
        rank_(ctx.rank()),
        index_(mailbox<Visitor>::make_index(config.policy,
                                            parts.num_vertices())),
        box_(config.policy, index_),
        outbox_(static_cast<std::size_t>(ctx.world()), frame{codec::type, {}}) {}
  // box_ holds a view of index_.
  superstep_engine(const superstep_engine&) = delete;
  superstep_engine& operator=(const superstep_engine&) = delete;

  using emitter = engine_emitter<superstep_engine, Visitor>;

  /// Injects an initial visitor. Every rank passes the same initial set;
  /// each keeps the visitors whose target it owns.
  void seed(const Visitor& v) {
    if (parts_.owner(v.target()) != rank_) return;
    ++metrics_.messages_local;
    admit(v);
  }

  /// Runs supersteps to global quiescence. Throws operation_cancelled when
  /// the vote folds a cancel bit, and wire_error if the mesh dies.
  [[nodiscard]] phase_metrics run() {
    const util::timer wall;
    for (std::uint32_t superstep = 0;; ++superstep) {
      const std::uint64_t sent_before = ctx_.begin_window();
      const double work_before = work();
      const util::timer compute_timer;
      while (!box_.empty()) {
        const Visitor v = box_.pop();
        emitter out(*this, parts_, rank_);
        ++ctx_.scratch.visitors;
        if (handler_.visit(v, rank_, out)) {
          ++metrics_.visitors_processed;
        } else {
          ++metrics_.visitors_skipped;
        }
      }
      ctx_.scratch.compute_seconds = compute_timer.seconds();

      const util::timer flush_timer;
      for (int peer = 0; peer < ctx_.world(); ++peer) flush(peer);
      ctx_.scratch.send_flush_seconds = flush_timer.seconds();
      ctx_.finish_exchange(superstep, [&](frame& f) {
        for (const Visitor& v : codec::decode(f)) {
          if (v.target() >= parts_.num_vertices()) {
            throw wire_error("visitor for a vertex outside the graph");
          }
          ++received_;
          admit(v);
        }
      });
      metrics_.queue_peak_items =
          std::max<std::uint64_t>(metrics_.queue_peak_items, box_.size());
      ++metrics_.rounds;

      const vote_decision decision =
          ctx_.end_superstep(phase_, superstep, box_.size(), sent_before,
                             work() - work_before);
      metrics_.sim_units += decision.max_work;
      if (decision.stop) break;
    }
    metrics_.queue_peak_bytes = metrics_.queue_peak_items * sizeof(Visitor);
    metrics_.wall_seconds = wall.seconds();
    return metrics_;
  }

 private:
  friend emitter;

  void send(const Visitor& v, int /*from_rank*/, int to) {
    if (to == rank_) {
      ++metrics_.messages_local;
      admit(v);
    } else {
      ++metrics_.messages_remote;
      ++ctx_.scratch.remote_msgs;
      std::vector<std::uint8_t>& batch =
          outbox_[static_cast<std::size_t>(to)].payload;
      codec::append(batch, v);
      if (batch.size() == k_batch_records * codec::record_bytes) flush(to);
    }
  }

  /// Sends `peer`'s pending records, if any, as one data frame.
  void flush(int peer) {
    frame& batch = outbox_[static_cast<std::size_t>(peer)];
    if (batch.payload.empty()) return;
    ctx_.send_data(peer, batch);
    batch.payload.clear();
  }

  /// Simulated work so far, from the counters (threaded-engine accounting).
  [[nodiscard]] double work() const noexcept {
    const phase_metrics& m = metrics_;
    return static_cast<double>(m.visitors_processed) * costs_.visit_cost +
           static_cast<double>(m.visitors_skipped + m.previsit_rejections) *
               costs_.reject_cost +
           static_cast<double>(m.messages_local + m.messages_remote) *
               costs_.send_cost +
           static_cast<double>(received_) * costs_.remote_msg_cost;
  }

  void admit(const Visitor& v) {
    // A mailbox merge drops one visitor: a rejection like pre_visit's.
    if (!handler_.pre_visit(v, rank_) || !box_.push(v)) {
      ++metrics_.previsit_rejections;
    }
  }

  rank_context& ctx_;
  partitioner parts_;
  Handler& handler_;
  cost_model costs_;
  telemetry_phase phase_;
  int rank_;
  std::vector<std::uint32_t> index_;  ///< box_'s position index
  mailbox<Visitor> box_;
  /// Per destination rank, the data frame being filled. Full frames go out
  /// during the drain, the rest at its end.
  std::vector<frame> outbox_;
  std::uint64_t received_ = 0;  ///< remote visitors delivered here
  phase_metrics metrics_;
};

}  // namespace dsteiner::runtime::net

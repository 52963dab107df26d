// The superstep engine: core's Handler/Visitor contract (see
// runtime/visitor_engine.hpp) run by one rank of a comm_backend mesh, the
// third transport beside the cooperative and threaded engines. A superstep:
//   1. drain the mailbox (engine_config::policy) while its top is within the
//      frontier window, m + Δ (below). Emissions to this rank pass pre_visit
//      at once; emissions to other ranks are encoded straight into a
//      per-owner frame, sent whenever it fills;
//   2. send the partial frames;
//   3. rank_context::end_superstep: one vote to every peer (outstanding sum,
//      cancel OR, max work, min priority), which also closes this rank's
//      data stream for the superstep. While waiting, every peer's visitors
//      up to its vote pass pre_visit into the mailbox; then the votes are
//      folded, and the telemetry and traffic samples recorded. One
//      all-to-all exchange per superstep.
// A vote's outstanding count is the mailbox size after the drain plus the
// visitors sent to other ranks this superstep, so a folded 0 means every
// mailbox is empty and nothing is in flight: all ranks stop together.
// Frontier window: for a windowed handler under the priority policy
// (runtime::windowed_handler), m is a lower bound on the least pending
// priority over all ranks: the least seed priority before the first
// superstep, then the vote's min-fold of each rank's mailbox top after the
// drain and the least priority it sent to other ranks. A batch therefore
// never pops past the exact bound; when the least visitor in flight is
// rejected on arrival, m is low and one superstep may pop nothing. FIFO runs
// and phase 6 have no window and drain the mailbox to a local fixed point.
// Simulated work uses the threaded engine's charges, derived from the
// counters: a vote folds the work since the previous vote, so the charge for
// admitting superstep k's frames lands in superstep k+1. The vote's max-fold
// adds the critical path to sim_units, and a windowed superstep charges the
// fold of m as one 8-byte collective, as the in-process engines do. Every
// other phase_metrics counter is this rank's own.
//
// rank_context is the rank's side of the mesh that every net phase shares:
// per-peer channels, the chunked exchange, the termination vote, and the
// observation around them (telemetry and traffic samples). A phase opens a
// window with begin_window() and closes it with end_superstep() (the
// engine's voting supersteps) or emit_phase_telemetry() + record_traffic()
// (one-shot exchanges: ghost sync, EN reduce, gather, which end with a
// marker to each peer).
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
    finish_exchange(on_frame);
  }

  /// Closes a one-shot exchange's telemetry window (no vote ran).
  void emit_phase_telemetry(telemetry_phase phase,
                            std::uint64_t ghost_labels = 0) {
    emit_telemetry(phase, 0, ghost_labels, 0);
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

  /// Closes one superstep: sends this rank's vote (`outstanding`, its
  /// cancel flag, `work` and `min_priority`; see superstep_vote) to every
  /// peer, hands each peer's data frames up to its vote to `on_frame` (timed
  /// as the window's receive wait), folds the votes, emits the telemetry
  /// sample and records a traffic sample — in that order, so the telemetry
  /// frame's own bytes land in the same traffic sample as the superstep it
  /// describes. Throws operation_cancelled when the folded vote carries a
  /// cancel bit, keeping all ranks' unwinding in lockstep.
  vote_decision end_superstep(telemetry_phase phase, std::uint32_t superstep,
                              std::uint64_t outstanding,
                              std::uint64_t sent_before, double work,
                              std::uint64_t min_priority,
                              const std::function<void(frame&)>& on_frame) {
    superstep_vote vote;
    vote.outstanding = outstanding;
    vote.superstep = superstep;
    vote.cancel =
        config.budget != nullptr && config.budget->stop_requested() ? 1 : 0;
    vote.max_work = work;
    vote.min_priority = min_priority;
    const util::timer recv_timer;
    const vote_decision decision =
        vote_round(chans_, vote, [&](int peer, frame& f) {
          receive_data(peer, f, on_frame);
        });
    scratch.recv_wait_seconds = recv_timer.seconds();
    ++report.supersteps;
    emit_telemetry(phase, superstep, 0, outstanding);
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

  /// Moves the finished report out: vote rounds (one per superstep),
  /// backend counters and, on rank 0 with telemetry on, every rank's samples
  /// merged.
  [[nodiscard]] net_solve_report take_report() {
    report.vote_rounds = report.supersteps;
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
  /// Ends this rank's side of a one-shot exchange: a marker to every peer,
  /// then every peer's data frames up to its marker to `on_frame`, in peer
  /// order (timed as the window's receive wait).
  void finish_exchange(const std::function<void(frame&)>& on_frame) {
    for (int peer = 0; peer < world(); ++peer) {
      if (peer != rank()) net_.send(peer, make_marker(0));
    }
    const util::timer recv_timer;
    for (int peer = 0; peer < world(); ++peer) {
      if (peer == rank()) continue;
      chans_.until_marker(peer, frame_type::superstep_marker,
                          [&](frame& f) { receive_data(peer, f, on_frame); });
    }
    scratch.recv_wait_seconds = recv_timer.seconds();
  }

  /// Tallies one data frame from `peer` to the window's traffic and passes
  /// it on.
  void receive_data(int peer, frame& f,
                    const std::function<void(frame&)>& on_frame) {
    telemetry_peer_traffic& t = scratch.peers[static_cast<std::size_t>(peer)];
    ++t.batches_received;
    t.bytes_received += wire_bytes(f);
    on_frame(f);
  }

  /// Builds this window's sample from the scratch and routes it: rank 0
  /// keeps it locally, other ranks push it to rank 0 as a telemetry frame
  /// (its payload charged to the perf model like any other payload, so the
  /// modelled/measured invariants keep holding with telemetry on). Also
  /// mirrors an aggregate row into the rank-0 engine probe, which is what
  /// puts distributed solves into /tracez and the slow-query log.
  void emit_telemetry(telemetry_phase phase, std::uint32_t superstep,
                      std::uint64_t ghost_labels, std::uint64_t backlog) {
    if (config.trace != nullptr) {
      obs::superstep_sample probe_sample;
      probe_sample.superstep = superstep;
      probe_sample.rank = -1;  // aggregate row: this whole rank's superstep
      probe_sample.visitors = static_cast<std::uint32_t>(scratch.visitors);
      probe_sample.sent = static_cast<std::uint32_t>(scratch.remote_msgs);
      probe_sample.backlog = static_cast<std::uint32_t>(backlog);
      probe_sample.compute_seconds = static_cast<float>(scratch.compute_seconds);
      probe_sample.barrier_wait_seconds =
          static_cast<float>(scratch.recv_wait_seconds);
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
        outbox_(static_cast<std::size_t>(ctx.world()), frame{codec::type, {}}),
        window_(frontier_window_of(handler, config)) {}
  // box_ holds a view of index_.
  superstep_engine(const superstep_engine&) = delete;
  superstep_engine& operator=(const superstep_engine&) = delete;

  using emitter = engine_emitter<superstep_engine, Visitor>;

  /// Injects an initial visitor. Every rank passes the same initial set;
  /// each keeps the visitors whose target it owns, and all of them start
  /// from the same m, the least priority of the whole set.
  void seed(const Visitor& v) {
    frontier_ = std::min(frontier_, v.priority());
    if (parts_.owner(v.target()) != rank_) return;
    ++metrics_.messages_local;
    admit(v);
  }

  /// Runs supersteps to global quiescence. Throws operation_cancelled when
  /// the vote folds a cancel bit, and wire_error if the mesh dies.
  [[nodiscard]] phase_metrics run() {
    const util::timer wall;
    const bool windowed = window_ != k_no_window;
    double voted_work = work();  // seeding is not charged
    for (std::uint32_t superstep = 0;; ++superstep) {
      const std::uint64_t sent_before = ctx_.begin_window();
      sent_min_ = UINT64_MAX;
      const util::timer compute_timer;
      const std::uint64_t bound = frontier_bound(frontier_, window_);
      while (!box_.empty()) {
        if (bound != UINT64_MAX && box_.top_priority() > bound) break;
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

      // scratch.remote_msgs counts this superstep's visitors in flight.
      const double work_now = work();
      std::uint64_t least = sent_min_;
      if (!box_.empty()) least = std::min(least, box_.top_priority());
      const vote_decision decision = ctx_.end_superstep(
          phase_, superstep, box_.size() + ctx_.scratch.remote_msgs,
          sent_before, work_now - voted_work, windowed ? least : UINT64_MAX,
          [&](frame& f) {
            for (const Visitor& v : codec::decode(f)) {
              if (v.target() >= parts_.num_vertices()) {
                throw wire_error("visitor for a vertex outside the graph");
              }
              ++received_;
              admit(v);
            }
          });
      voted_work = work_now;
      metrics_.queue_peak_items =
          std::max<std::uint64_t>(metrics_.queue_peak_items, box_.size());
      ++metrics_.rounds;
      metrics_.sim_units += decision.max_work;
      if (windowed) {
        // The vote's min-fold of m, priced as an 8-byte collective.
        frontier_ = decision.min_priority;
        charge_collective(metrics_, costs_, ctx_.world(), sizeof(frontier_));
      }
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
      sent_min_ = std::min(sent_min_, v.priority());
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
  std::uint64_t window_;  ///< Δ; see windowed_handler
  /// m: a lower bound on the least pending priority over all ranks.
  std::uint64_t frontier_ = UINT64_MAX;
  std::uint64_t sent_min_ = UINT64_MAX;  ///< least priority sent remotely
  phase_metrics metrics_;
};

}  // namespace dsteiner::runtime::net

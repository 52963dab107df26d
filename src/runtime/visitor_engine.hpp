// Asynchronous vertex-centric visitor engine — the HavoqGT stand-in.
//
// HavoqGT executes algorithms as vertex callbacks: events ("visitors") are
// queued per rank, a visitor's pre_visit runs when it arrives at the target
// vertex's owner, and its visit runs when dequeued, possibly pushing further
// visitors (§IV). Computation completes when every queue has drained.
//
// This engine reproduces those semantics in one process. Ranks take turns in
// a cooperative round-robin; each round a rank drains up to `batch_size`
// visitors. Because delivery is in-process, messages emitted by rank r are
// immediately visible to later ranks in the same round — modelling the
// communication/computation overlap of asynchronous MPI. A bulk-synchronous
// mode (deliveries deferred to the round boundary) is provided for the
// async-vs-BSP ablation, and execution_mode::parallel_threads swaps in the
// threaded backend (runtime/parallel/thread_engine.hpp) with real per-rank
// workers — run_visitors() dispatches.
//
// The simulated clock advances per round by the *maximum* per-rank work —
// the critical path — so per-phase simulated times exhibit genuine strong-
// scaling behaviour (load imbalance, diminishing work per rank) even though
// everything runs on one core.
//
// Handler concept:
//   bool pre_visit(const Visitor&, int rank);
//     Arrival-time state relaxation at the target's owner. Return true to
//     enqueue the visitor for its scatter step (Alg. 4 lines 5-9).
//   bool visit(const Visitor&, int rank, Emitter&);
//     Dequeued step; typically re-checks state and scatters to neighbours
//     (Alg. 4 lines 10-13). Return false if superseded (skipped).
//
// Visitor concept:
//   graph::vertex_id target() const;   // routing key
//   std::uint64_t priority() const;    // mailbox priority (lower first)
// Optional, for one queued entry per vertex under queue_policy::priority
// (runtime::keyed_visitor, see mailbox.hpp):
//   graph::vertex_id queue_key() const;       // merge key; k_no_vertex: never
//   bool supersedes(const Visitor&) const;    // strict order within one key
// A merge drops one visitor; every engine counts it as a pre_visit
// rejection and charges reject_cost to the receiving rank.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "obs/engine_probe.hpp"
#include "runtime/engine_config.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/partition.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/parallel/thread_engine.hpp"
#include "util/timer.hpp"

namespace dsteiner::runtime {

template <typename Visitor, typename Handler>
class visitor_engine {
 public:
  visitor_engine(const partitioner& parts, Handler& handler, engine_config config)
      : parts_(parts), handler_(&handler), config_(config) {
    // batch_size 0 opts into the threaded engine's adaptive batching; the
    // cooperative engine has no barrier to adapt against, so it just runs
    // the default.
    if (config_.batch_size == 0) config_.batch_size = 64;
    index_ = mailbox<Visitor>::make_index(config.policy, parts.num_vertices());
    mailboxes_.assign(static_cast<std::size_t>(parts.num_ranks()),
                      mailbox<Visitor>(config.policy, index_));
    round_work_.assign(static_cast<std::size_t>(parts.num_ranks()), 0.0);
  }
  // mailboxes_ hold a view of index_.
  visitor_engine(const visitor_engine&) = delete;
  visitor_engine& operator=(const visitor_engine&) = delete;

  using emitter = engine_emitter<visitor_engine, Visitor>;

  /// Injects an initial visitor (the do_traversal seeding step); charged as a
  /// local message on the target's owner.
  void seed(Visitor v) {
    const int rank = parts_.owner(v.target());
    send(std::move(v), rank, rank);
  }

  /// Processes to global quiescence and returns the phase metrics. Throws
  /// util::operation_cancelled at a round boundary when config.budget trips
  /// (cooperative cancellation/deadline checkpoint).
  [[nodiscard]] phase_metrics run() {
    util::timer wall;
    const int p = parts_.num_ranks();
    while (pending_ > 0 || !staged_.empty()) {
      if (config_.budget != nullptr) config_.budget->check();
      // Pre-round counter snapshot so tracing can report per-round deltas.
      // Taken only when a probe is attached; the untraced path pays nothing.
      const bool sampling = config_.probe != nullptr;
      const std::uint64_t visited0 =
          metrics_.visitors_processed + metrics_.visitors_skipped;
      const std::uint64_t sent0 =
          metrics_.messages_local + metrics_.messages_remote;
      const double round_wall0 = sampling ? wall.seconds() : 0.0;
      ++metrics_.rounds;
      std::fill(round_work_.begin(), round_work_.end(), 0.0);
      for (int r = 0; r < p; ++r) {
        auto& box = mailboxes_[static_cast<std::size_t>(r)];
        for (std::size_t step = 0; step < config_.batch_size && !box.empty();
             ++step) {
          Visitor v = box.pop();
          --pending_;
          emitter out(*this, parts_, r);
          if (handler_->visit(v, r, out)) {
            ++metrics_.visitors_processed;
            round_work_[static_cast<std::size_t>(r)] += config_.costs.visit_cost;
          } else {
            ++metrics_.visitors_skipped;
            round_work_[static_cast<std::size_t>(r)] += config_.costs.reject_cost;
          }
        }
      }
      if (config_.mode == execution_mode::bsp && !staged_.empty()) {
        std::vector<std::pair<int, Visitor>> batch;
        batch.swap(staged_);
        for (auto& [to, v] : batch) deliver(std::move(v), to);
      }
      const double round_max =
          *std::max_element(round_work_.begin(), round_work_.end());
      metrics_.sim_units += round_max;
      if (sampling) {
        // One aggregate row per round (the engine runs on a single thread,
        // so lane 0 is the only writer) plus per-rank work/backlog rows for
        // ranks that actually did something — these become the counter
        // tracks in the exported trace.
        obs::superstep_sample agg;
        agg.superstep = static_cast<std::uint32_t>(metrics_.rounds - 1);
        agg.rank = -1;
        agg.visitors = static_cast<std::uint32_t>(
            metrics_.visitors_processed + metrics_.visitors_skipped - visited0);
        agg.sent = static_cast<std::uint32_t>(
            metrics_.messages_local + metrics_.messages_remote - sent0);
        agg.backlog = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(pending_ + staged_.size(), UINT32_MAX));
        agg.work_units = static_cast<float>(round_max);
        agg.compute_seconds =
            static_cast<float>(wall.seconds() - round_wall0);
        config_.probe->record(0, agg);
        for (int r = 0; r < p; ++r) {
          const double work = round_work_[static_cast<std::size_t>(r)];
          const std::size_t backlog =
              mailboxes_[static_cast<std::size_t>(r)].size();
          if (work <= 0.0 && backlog == 0) continue;
          obs::superstep_sample s;
          s.superstep = agg.superstep;
          s.rank = r;
          s.backlog = static_cast<std::uint32_t>(
              std::min<std::size_t>(backlog, UINT32_MAX));
          s.work_units = static_cast<float>(work);
          config_.probe->record(0, s);
        }
      }
    }
    metrics_.wall_seconds = wall.seconds();
    return metrics_;
  }

  [[nodiscard]] const phase_metrics& metrics() const noexcept { return metrics_; }

 private:
  friend emitter;

  void send(Visitor v, int from_rank, int to_rank) {
    // Emission work (serialization, queue injection) belongs to the sender —
    // this is what makes a high-degree scatter expensive on its home rank
    // and what vertex delegates spread out.
    round_work_[static_cast<std::size_t>(from_rank)] += config_.costs.send_cost;
    if (to_rank == from_rank) {
      ++metrics_.messages_local;
    } else {
      ++metrics_.messages_remote;
      round_work_[static_cast<std::size_t>(to_rank)] +=
          config_.costs.remote_msg_cost;
    }
    if (config_.mode == execution_mode::bsp) {
      staged_.emplace_back(to_rank, std::move(v));
      note_peak();
      return;
    }
    deliver(std::move(v), to_rank);
  }

  void deliver(Visitor v, int to_rank) {
    // A mailbox merge is a rejection too, and leaves pending_ as it was.
    if (!handler_->pre_visit(v, to_rank) ||
        !mailboxes_[static_cast<std::size_t>(to_rank)].push(v)) {
      ++metrics_.previsit_rejections;
      round_work_[static_cast<std::size_t>(to_rank)] += config_.costs.reject_cost;
      return;
    }
    ++pending_;
    note_peak();
  }

  void note_peak() noexcept {
    const std::uint64_t items = pending_ + staged_.size();
    if (items > metrics_.queue_peak_items) {
      metrics_.queue_peak_items = items;
      metrics_.queue_peak_bytes = items * sizeof(Visitor);
    }
  }

  partitioner parts_;
  Handler* handler_;
  engine_config config_;
  std::vector<std::uint32_t> index_;  ///< shared by mailboxes_; see mailbox
  std::vector<mailbox<Visitor>> mailboxes_;
  std::vector<std::pair<int, Visitor>> staged_;  // BSP-deferred deliveries
  std::vector<double> round_work_;
  std::uint64_t pending_ = 0;
  phase_metrics metrics_;
};

/// Convenience wrapper: seeds `initial` visitors and runs to quiescence.
/// Dispatches on execution mode: parallel_threads runs on the threaded
/// backend (runtime/parallel/), async/bsp on the cooperative engine above.
template <typename Visitor, typename Handler>
[[nodiscard]] phase_metrics run_visitors(const partitioner& parts,
                                         Handler& handler,
                                         std::vector<Visitor> initial,
                                         const engine_config& config) {
  if (config.mode == execution_mode::parallel_threads) {
    parallel::thread_engine<Visitor, Handler> engine(parts, handler, config);
    for (auto& v : initial) engine.seed(std::move(v));
    return engine.run();
  }
  visitor_engine<Visitor, Handler> engine(parts, handler, config);
  for (auto& v : initial) engine.seed(std::move(v));
  return engine.run();
}

}  // namespace dsteiner::runtime

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
    bucketed_ = config_.growth == growth_mode::bucketed &&
                config_.bucket_delta > 0;
    mailboxes_.reserve(static_cast<std::size_t>(parts.num_ranks()));
    for (int r = 0; r < parts.num_ranks(); ++r) {
      mailboxes_.emplace_back(config.policy,
                              bucketed_ ? config_.bucket_delta : 0);
    }
    round_work_.assign(static_cast<std::size_t>(parts.num_ranks()), 0.0);
  }

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
      round_light_ = round_heavy_ = 0;
      std::uint64_t round_bucket = k_no_bucket;
      if (bucketed_) {
        // The round drains the globally lowest bucket. The prune decision
        // additionally folds BSP-staged priorities so a staged lower-bucket
        // visitor is never dropped by mistake.
        for (const auto& box : mailboxes_) {
          round_bucket = std::min(round_bucket, box.min_bucket());
        }
        std::uint64_t min_all = round_bucket;
        for (const auto& [to, v] : staged_) {
          min_all = std::min(min_all, v.priority() / config_.bucket_delta);
        }
        if (min_all != k_no_bucket &&
            min_all * config_.bucket_delta > config_.priority_limit) {
          // Every remaining visitor has priority >= min_all * delta, beyond
          // the best landmark upper bound: nothing left can improve a cell,
          // so drop it all and terminate.
          metrics_.bucket_pruned += pending_ + staged_.size();
          for (auto& box : mailboxes_) box.clear();
          staged_.clear();
          pending_ = 0;
          break;
        }
        if (round_bucket != k_no_bucket && round_bucket != last_bucket_) {
          ++metrics_.buckets_processed;
          last_bucket_ = round_bucket;
        }
        current_bucket_ = round_bucket;
      }
      for (int r = 0; r < p; ++r) {
        auto& box = mailboxes_[static_cast<std::size_t>(r)];
        // Bucketed: drain the whole current bucket (relaxations only ever
        // land in this bucket or later, so the loop terminates). Strict:
        // batch_size visitors in priority order.
        for (std::size_t step = 0; !box.empty(); ++step) {
          if (bucketed_) {
            if (box.min_bucket() != round_bucket) break;
          } else if (step >= config_.batch_size) {
            break;
          }
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
        if (bucketed_) {
          agg.bucket = current_bucket_;
          agg.light = round_light_;
          agg.heavy = round_heavy_;
        }
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
    if (bucketed_) {
      // Delta-stepping nomenclature: a relaxation landing in the bucket
      // currently being drained is "light" (re-examined this round), one
      // landing in a later bucket is "heavy" (settled once).
      if (v.priority() / config_.bucket_delta == current_bucket_) {
        ++round_light_;
      } else {
        ++round_heavy_;
      }
    }
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
    if (!handler_->pre_visit(v, to_rank)) {
      ++metrics_.previsit_rejections;
      round_work_[static_cast<std::size_t>(to_rank)] += config_.costs.reject_cost;
      return;
    }
    mailboxes_[static_cast<std::size_t>(to_rank)].push(std::move(v));
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
  bool bucketed_ = false;
  std::vector<mailbox<Visitor>> mailboxes_;
  std::vector<std::pair<int, Visitor>> staged_;  // BSP-deferred deliveries
  std::vector<double> round_work_;
  std::uint64_t pending_ = 0;
  std::uint64_t current_bucket_ = k_no_bucket;  // bucket being drained
  std::uint64_t last_bucket_ = k_no_bucket;     // for buckets_processed
  std::uint32_t round_light_ = 0;
  std::uint32_t round_heavy_ = 0;
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

// Threaded visitor engine: real per-rank workers over lock-free channels.
//
// Executes the same Handler/Visitor contract as the cooperative
// visitor_engine, but on a worker pool so a single cold solve scales with
// cores. Ranks are striped over W workers (rank r runs on worker r % W); a
// rank's mailbox and vertex state are touched only by its worker, preserving
// the owner discipline the sequential simulation already obeys. Inter-rank
// traffic flows through one SPSC channel per ordered rank pair — the worker
// running the sender rank is the sole producer, the receiver's worker the
// sole consumer.
//
// Execution proceeds in supersteps of two phases split by barriers:
//
//   phase A (deliver): each rank drains its inbound channels in sender-rank
//     order (per-sender FIFO preserved by the channel), runs pre_visit as the
//     arrival admission check, and stable-merges survivors into its priority
//     mailbox (a keyed survivor merges with its vertex's queued entry, see
//     mailbox.hpp).                                  -- barrier --
//   phase B (compute): each rank pops up to batch_size visitors from its
//     mailbox and runs visit; emissions to the rank itself deliver
//     immediately (same-superstep consumption, like the async engine's local
//     sends), emissions to other ranks enter the SPSC channels.
//                                                    -- counting barrier --
//
// The phase-B barrier is the termination detector: every worker contributes
// its ranks' outstanding messages (mailbox backlog + channel emissions this
// superstep) and the epoch aggregate is zero exactly at global quiescence.
// Because producers only push in phase B and consumers only pop in phase A,
// channels are never touched concurrently from both ends of an epoch, and the
// per-epoch message count is exact, not a racy sample.
//
// Determinism: the (rank, superstep) schedule is independent of the worker
// count — each rank always drains full channels in sender order and then
// processes exactly batch_size visitors in mailbox (priority, sequence)
// order. Runs are therefore bit-identical across thread counts, including
// all phase metrics; and the solve output equals the sequential engine's
// because every state update is a lexicographic minimum with a unique fixed
// point (see steiner_state.hpp). Cost accounting differences vs the async
// engine: remote-message delivery work is charged to the receiving rank at
// drain time (the following superstep) instead of at send time.
//
// batch_size == 0 opts into adaptive batching: worker 0 measures its phase-B
// compute vs barrier-B wait each superstep and grows the shared batch when
// the barrier dominates (amortize synchronization) or shrinks it when
// compute dominates (bound priority inversion). By design this trades the
// metrics' bit-identity for self-tuning throughput.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/types.hpp"
#include "obs/engine_probe.hpp"
#include "runtime/engine_config.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/partition.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/parallel/spsc_channel.hpp"
#include "runtime/parallel/superstep_barrier.hpp"
#include "runtime/parallel/worker_pool.hpp"
#include "util/timer.hpp"

namespace dsteiner::runtime::parallel {

template <typename Visitor, typename Handler>
class thread_engine {
 public:
  thread_engine(const partitioner& parts, Handler& handler,
                engine_config config)
      : parts_(parts), handler_(&handler), config_(config) {
    adaptive_ = config_.batch_size == 0;
    if (config_.batch_size == 0) config_.batch_size = 64;
    const auto p = static_cast<std::size_t>(parts.num_ranks());
    index_ = mailbox<Visitor>::make_index(config.policy, parts.num_vertices());
    mailboxes_.assign(p, mailbox<Visitor>(config.policy, index_));
    channels_.reserve(p * p);
    for (std::size_t i = 0; i < p * p; ++i) {
      channels_.push_back(std::make_unique<spsc_channel<Visitor>>());
    }
    stats_ = std::vector<rank_stats>(p);
  }

  using emitter = engine_emitter<thread_engine, Visitor>;

  /// Injects an initial visitor; staged in the owner's self-channel so the
  /// first superstep's phase A admits it on the owner's worker (pre_visit
  /// must never run off-thread). Call only before run().
  void seed(Visitor v) {
    const int rank = parts_.owner(v.target());
    channel(rank, rank).push(std::move(v));
    ++stats_[static_cast<std::size_t>(rank)].messages_local;
    ++seeded_;
  }

  /// Processes to global quiescence and returns the phase metrics. Throws
  /// util::operation_cancelled when config.budget trips: the vote is folded
  /// through the phase-B barrier, so every worker abandons the run at the
  /// same superstep and the pool is returned idle (partial per-rank state is
  /// simply discarded with the engine).
  [[nodiscard]] phase_metrics run() {
    util::timer wall;
    if (config_.budget != nullptr) config_.budget->check();
    if (seeded_ == 0) {
      metrics_.wall_seconds = wall.seconds();
      return metrics_;
    }
    const auto p = static_cast<std::size_t>(parts_.num_ranks());
    worker_pool* pool = config_.pool;
    std::optional<worker_pool> transient;
    if (pool == nullptr) {
      const std::size_t want = config_.num_threads != 0
                                   ? config_.num_threads
                                   : worker_pool::default_threads();
      transient.emplace(std::min(want, p));
      pool = &*transient;
    }
    const std::size_t workers = std::min(pool->size(), p);
    superstep_barrier barrier(workers);
    pool->run([this, &barrier, workers, p](std::size_t w) {
      if (w >= workers) return;  // pool larger than the rank count
      worker_loop(w, workers, p, barrier);
    });
    if (cancelled_) {
      // Recomputing the reason here is safe: tokens are sticky and the
      // deadline is monotone, so whatever made a worker vote still holds.
      const util::cancel_reason why = config_.budget->stop_reason();
      throw util::operation_cancelled(why != util::cancel_reason::none
                                          ? why
                                          : util::cancel_reason::cancelled);
    }
    for (const rank_stats& st : stats_) {
      metrics_.visitors_processed += st.processed;
      metrics_.visitors_skipped += st.skipped;
      metrics_.previsit_rejections += st.previsit_rejections;
      metrics_.messages_local += st.messages_local;
      metrics_.messages_remote += st.messages_remote;
    }
    metrics_.wall_seconds = wall.seconds();
    return metrics_;
  }

  [[nodiscard]] const phase_metrics& metrics() const noexcept {
    return metrics_;
  }

 private:
  friend emitter;

  /// Per-rank accounting, touched only by the rank's worker; padded to a
  /// cache-line pair (as mailbox is) so neighbouring ranks on different
  /// workers do not false-share.
  struct alignas(128) rank_stats {
    double work = 0.0;  ///< simulated work this superstep, reset at barrier B
    std::uint64_t processed = 0;
    std::uint64_t skipped = 0;
    std::uint64_t previsit_rejections = 0;
    std::uint64_t messages_local = 0;
    std::uint64_t messages_remote = 0;
    std::uint64_t sent_remote_step = 0;  ///< channel emissions this superstep
    // Tracing deltas, reset after each sample. Maintained unconditionally
    // (one add on paths that already touch this cache line) so the compute
    // loop stays branch-free; they are only *read* when a probe is attached.
    std::uint32_t visits_step = 0;   ///< visit dispatches this superstep
    std::uint32_t drained_step = 0;  ///< channel admissions this superstep
  };

  [[nodiscard]] spsc_channel<Visitor>& channel(int from, int to) noexcept {
    const auto p = static_cast<std::size_t>(parts_.num_ranks());
    return *channels_[static_cast<std::size_t>(from) * p +
                      static_cast<std::size_t>(to)];
  }

  void worker_loop(std::size_t w, std::size_t workers, std::size_t p,
                   superstep_barrier& barrier) {
    // Tracing is sampled per worker into probe lane w (this thread is the
    // lane's only writer). All clock reads are gated on the probe so the
    // untraced path costs nothing beyond two per-rank counter increments.
    obs::engine_probe* probe = config_.probe;
    std::uint32_t superstep = 0;
    // Timed when tracing, or on worker 0 when adaptive batching needs the
    // compute/barrier-wait ratio.
    const bool timed = probe != nullptr || (adaptive_ && w == 0);
    util::timer step_timer;  // read only when `timed`
    for (;;) {
      // Phase A: admit everything the previous superstep (or seeding) put
      // into our ranks' channels. Channels are quiescent here — producers
      // only push in phase B — so the drain is exact and deterministic.
      if (timed) step_timer.restart();
      for (std::size_t r = w; r < p; r += workers) {
        drain_channels(static_cast<int>(r), static_cast<int>(p));
      }
      const double t_drained = timed ? step_timer.seconds() : 0.0;
      barrier.arrive_and_wait(0, 0.0);
      const double t_computing = timed ? step_timer.seconds() : 0.0;

      // Phase B: compute. Local emissions are consumable this superstep;
      // remote emissions wait in channels for the next phase A.
      std::uint64_t outstanding = 0;
      double work_max = 0.0;
      std::uint32_t visits_sum = 0;
      std::uint32_t sent_sum = 0;
      std::uint32_t drained_sum = 0;
      for (std::size_t r = w; r < p; r += workers) {
        process_batch(static_cast<int>(r));
        rank_stats& st = stats_[r];
        outstanding += mailboxes_[r].size() + st.sent_remote_step;
        work_max = std::max(work_max, st.work);
        if (probe != nullptr) {
          // Per-rank row (channel depth, per-rank skew) before the
          // superstep-scoped counters reset. Quiet ranks are skipped.
          visits_sum += st.visits_step;
          sent_sum += static_cast<std::uint32_t>(st.sent_remote_step);
          drained_sum += st.drained_step;
          const std::size_t backlog = mailboxes_[r].size();
          if (st.visits_step != 0 || st.drained_step != 0 ||
              st.sent_remote_step != 0 || backlog != 0) {
            obs::superstep_sample s;
            s.superstep = superstep;
            s.rank = static_cast<std::int32_t>(r);
            s.visitors = st.visits_step;
            s.sent = static_cast<std::uint32_t>(st.sent_remote_step);
            s.drained = st.drained_step;
            s.backlog = static_cast<std::uint32_t>(
                std::min<std::size_t>(backlog, UINT32_MAX));
            s.work_units = static_cast<float>(st.work);
            probe->record(w, s);
          }
        }
        st.work = 0.0;
        st.sent_remote_step = 0;
        st.visits_step = 0;
        st.drained_step = 0;
      }
      // Cancellation checkpoint: each worker votes with its own observation
      // and the barrier's OR-fold makes the stop decision unanimous.
      const bool stop_vote =
          config_.budget != nullptr && config_.budget->stop_requested();
      const double t_computed = timed ? step_timer.seconds() : 0.0;
      const auto agg = barrier.arrive_and_wait(outstanding, work_max, stop_vote);
      if (probe != nullptr) {
        // Aggregate row for this worker's whole superstep: compute is the
        // drain plus the batch, barrier wait is both stalls.
        obs::superstep_sample s;
        s.superstep = superstep;
        s.rank = -1;
        s.visitors = visits_sum;
        s.sent = sent_sum;
        s.drained = drained_sum;
        s.work_units = static_cast<float>(work_max);
        s.compute_seconds =
            static_cast<float>(t_drained + (t_computed - t_computing));
        s.barrier_wait_seconds = static_cast<float>(
            (t_computing - t_drained) + (step_timer.seconds() - t_computed));
        probe->record(w, s);
      }
      if (adaptive_ && w == 0) {
        // Self-tuning batch size from this superstep's measured ratio:
        // barrier-wait-dominated supersteps mean the batch is too small to
        // amortize synchronization; compute-dominated ones mean it can
        // shrink to tighten priority order. Workers pick the new size up at
        // their next phase B (the barrier already orders the accesses; the
        // atomic is for TSan-visible publication).
        const double compute = t_computed - t_computing;
        const double wait = step_timer.seconds() - t_computed;
        std::size_t b = auto_batch_.load(std::memory_order_relaxed);
        if (wait > 0.5 * compute && b < 8192) {
          b *= 2;
        } else if (wait < 0.05 * compute && b > 16) {
          b /= 2;
        }
        auto_batch_.store(b, std::memory_order_relaxed);
      }
      ++superstep;
      if (agg.cancel) {
        if (w == 0) cancelled_ = true;  // sole writer; read after pool joins
        return;
      }
      if (w == 0) {
        ++metrics_.rounds;
        metrics_.sim_units += agg.max_work;
        if (agg.outstanding > metrics_.queue_peak_items) {
          metrics_.queue_peak_items = agg.outstanding;
          metrics_.queue_peak_bytes = agg.outstanding * sizeof(Visitor);
        }
      }
      if (agg.outstanding == 0) return;
    }
  }

  void drain_channels(int r, int p) {
    rank_stats& st = stats_[static_cast<std::size_t>(r)];
    auto& box = mailboxes_[static_cast<std::size_t>(r)];
    Visitor v;
    for (int s = 0; s < p; ++s) {
      auto& ch = channel(s, r);
      while (ch.try_pop(v)) {
        if (s != r) st.work += config_.costs.remote_msg_cost;
        if (!handler_->pre_visit(v, r) || !box.push(v)) {
          ++st.previsit_rejections;  // a mailbox merge counts here too
          st.work += config_.costs.reject_cost;
          continue;
        }
        ++st.drained_step;
      }
    }
  }

  void process_batch(int r) {
    rank_stats& st = stats_[static_cast<std::size_t>(r)];
    auto& box = mailboxes_[static_cast<std::size_t>(r)];
    emitter out(*this, parts_, r);
    const std::size_t batch = adaptive_
                                  ? auto_batch_.load(std::memory_order_relaxed)
                                  : config_.batch_size;
    for (std::size_t step = 0; step < batch && !box.empty(); ++step) {
      Visitor v = box.pop();
      ++st.visits_step;
      if (handler_->visit(v, r, out)) {
        ++st.processed;
        st.work += config_.costs.visit_cost;
      } else {
        ++st.skipped;
        st.work += config_.costs.reject_cost;
      }
    }
  }

  void send(Visitor v, int from_rank, int to_rank) {
    rank_stats& st = stats_[static_cast<std::size_t>(from_rank)];
    st.work += config_.costs.send_cost;
    if (to_rank == from_rank) {
      // Same-rank delivery stays on this worker: admit immediately so the
      // visitor is consumable within this superstep's batch, mirroring the
      // async engine's local sends.
      ++st.messages_local;
      if (!handler_->pre_visit(v, to_rank) ||
          !mailboxes_[static_cast<std::size_t>(to_rank)].push(v)) {
        ++st.previsit_rejections;
        st.work += config_.costs.reject_cost;
      }
      return;
    }
    ++st.messages_remote;
    ++st.sent_remote_step;
    channel(from_rank, to_rank).push(std::move(v));
  }

  partitioner parts_;
  Handler* handler_;
  engine_config config_;
  bool adaptive_ = false;  ///< batch_size == 0: self-tuning batch
  std::atomic<std::size_t> auto_batch_{64};
  /// Shared by mailboxes_; a vertex's slot is written only by its owner's
  /// worker (see mailbox::make_index).
  std::vector<std::uint32_t> index_;
  std::vector<mailbox<Visitor>> mailboxes_;
  std::vector<std::unique_ptr<spsc_channel<Visitor>>> channels_;  // [from*p+to]
  std::vector<rank_stats> stats_;
  std::uint64_t seeded_ = 0;
  bool cancelled_ = false;  ///< set by worker 0 when the barrier votes to stop
  phase_metrics metrics_;
};

}  // namespace dsteiner::runtime::parallel

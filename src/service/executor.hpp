// Priority admission queue + bounded worker pool backing the Steiner query
// service.
//
// A fixed set of std::thread workers drains a bounded, *class-prioritized*
// admission queue: three priority levels (the service maps its
// interactive/batch/background classes onto them), drained in level order
// with earliest-deadline-first inside a level — deadline-bound tasks run
// before unbounded ones, FIFO among equal deadlines (so deadline-free
// workloads behave exactly as the old FIFO did). The bound is the service's
// backpressure mechanism — `try_post` never blocks the producer; it sheds
// instead (QoS admission) — and two policies keep a full queue from going
// blind:
//
//   expiry:       a queued task whose deadline has passed is dropped (its
//                 on_dropped handler fires) instead of wasting a worker, and
//                 expired entries are purged first when admission needs room;
//   displacement: a higher-level arrival into a full queue evicts the
//                 *latest-deadline* (deadline-free first, then newest) queued
//                 task of the lowest populated level below it, so saturation
//                 sheds the least urgent background work before interactive
//                 work.
//
// Each executed task receives the queue wait it actually experienced, and the
// executor tracks cumulative execution time so the service's admission cost
// model can estimate backlog drain rates.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/timer.hpp"

namespace dsteiner::service {

/// Admission levels understood by the executor (0 = most urgent). Matches
/// service::k_priority_classes; kept as a separate constant because the
/// executor is priority-*level* generic, not priority-*class* aware.
inline constexpr std::size_t k_executor_priority_levels = 3;

struct executor_config {
  std::size_t num_threads = 2;
  /// Maximum tasks waiting for a worker (excludes the ones being executed),
  /// summed across all priority levels.
  std::size_t queue_capacity = 256;
  /// Priority aging: a queued task that has waited `aging_step_seconds`
  /// gains one effective priority level per elapsed step (floor(age/step)
  /// levels total), physically moving up at worker-pickup time so saturated
  /// interactive traffic cannot starve batch/background work forever.
  /// Promoted tasks join the EDF order of their new level. 0 (default)
  /// disables aging — strict priority, the historical behaviour.
  double aging_step_seconds = 0.0;
};

/// Why a queued task was dropped without running (on_dropped's argument).
enum class drop_reason : std::uint8_t {
  expired,    ///< its deadline passed while it waited
  displaced,  ///< shed to admit a higher-priority arrival into a full queue
};

struct executor_stats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  ///< try_post refusals while the queue was full
  std::uint64_t executed = 0;  ///< tasks run to completion
  std::uint64_t tasks_failed = 0;  ///< tasks that let an exception escape
  std::uint64_t expired = 0;       ///< queued tasks dropped past their deadline
  std::uint64_t displaced = 0;     ///< queued tasks shed for a higher level
  std::uint64_t promoted = 0;      ///< queued tasks moved up a level by aging
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t queue_depth = 0;   ///< tasks queued at the stats() call
  double total_queue_wait_seconds = 0.0;
  double max_queue_wait_seconds = 0.0;
  /// Wall seconds spent *running* tasks (all workers, cumulative) — with
  /// `executed`, the mean task cost the admission estimator drains at.
  double total_exec_seconds = 0.0;

  [[nodiscard]] double mean_exec_seconds() const noexcept {
    return executed == 0
               ? 0.0
               : total_exec_seconds / static_cast<double>(executed);
  }
};

class executor {
 public:
  /// Task signature: invoked on a worker with the seconds the task spent
  /// queued before pickup. Tasks should handle their own errors; an escaped
  /// exception is swallowed and counted (tasks_failed), never propagated.
  using task = std::function<void(double queue_wait_seconds)>;
  /// Invoked (outside the executor lock, on the dropping thread) when a
  /// queued task is expired or displaced instead of executed.
  using drop_handler = std::function<void(drop_reason)>;

  struct task_options {
    std::size_t priority = 0;  ///< clamped to k_executor_priority_levels - 1
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    drop_handler on_dropped;
  };

  explicit executor(executor_config config = {});

  /// Drains every queued task, then joins the workers. (Tasks still queued
  /// past their deadline are dropped, not run, during the drain.)
  ~executor();

  executor(const executor&) = delete;
  executor& operator=(const executor&) = delete;

  /// Admission: purge expired entries, then displace a lower-priority queued
  /// task, then give up — false (and the rejected counter) when nothing
  /// below `opts.priority` could be shed. Never blocks. Throws
  /// std::runtime_error after shutdown began.
  [[nodiscard]] bool try_post(task t, task_options opts);
  [[nodiscard]] bool try_post(task t) {
    return try_post(std::move(t), task_options{});
  }

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] std::size_t queue_depth() const;
  /// Queued tasks at `priority` or more urgent — the backlog a new arrival
  /// at that level waits behind (its own FIFO predecessors included).
  [[nodiscard]] std::size_t backlog_ahead(std::size_t priority) const;
  [[nodiscard]] executor_stats stats() const;

  /// Elapsed run time of every task workers are *currently* executing (one
  /// entry per busy worker) — the half of the drain the queue cannot see.
  /// The admission cost model adds each task's residual (expected mean minus
  /// its own elapsed, floored at zero per task so one straggler past its
  /// mean cannot mask other tasks' remaining work) to the queued backlog, so
  /// a long solve mid-flight delays predictions even when the queue itself
  /// is empty.
  [[nodiscard]] std::vector<double> running_elapsed_seconds() const;

 private:
  struct queued_task {
    util::timer enqueued;  ///< started at admission; read at pickup
    task work;
    std::chrono::steady_clock::time_point deadline;
    drop_handler on_dropped;
  };
  /// Handlers harvested under the lock, invoked after it is released.
  using dropped_list = std::vector<std::pair<drop_handler, drop_reason>>;

  void worker_loop(std::size_t worker_id);
  [[nodiscard]] std::size_t total_queued_locked() const noexcept;
  /// EDF insertion: before every queued task with a strictly later deadline,
  /// after every task with an equal-or-earlier one (stable, so equal
  /// deadlines — including the deadline-free tail — drain FIFO).
  void enqueue_locked(std::size_t priority, queued_task item);
  /// The raw EDF insert behind enqueue_locked, without admission accounting
  /// (aging re-inserts move existing tasks, they are not new submissions).
  void insert_locked(std::size_t priority, queued_task item);
  /// Priority aging at pickup time: moves every queued task whose wait has
  /// crossed one or more aging steps up that many levels. No-op when
  /// aging_step_seconds == 0. Lock must be held.
  void promote_aged_locked();
  /// Drops every queued task whose deadline has passed. Lock must be held;
  /// the harvested handlers must be fired promptly after it is released.
  void purge_expired_locked(dropped_list& dropped);
  static void fire(dropped_list& dropped);

  executor_config config_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::array<std::deque<queued_task>, k_executor_priority_levels> queues_;
  executor_stats stats_;
  /// Per-worker in-flight tracking behind running(); guarded by mutex_.
  std::vector<char> busy_;
  std::vector<util::timer> busy_since_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dsteiner::service

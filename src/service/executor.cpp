#include "service/executor.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace dsteiner::service {

executor::executor(executor_config config) : config_(config) {
  config_.num_threads = std::max<std::size_t>(1, config_.num_threads);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  busy_.assign(config_.num_threads, 0);
  busy_since_.resize(config_.num_threads);
  workers_.reserve(config_.num_threads);
  for (std::size_t i = 0; i < config_.num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

executor::~executor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t executor::total_queued_locked() const noexcept {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

void executor::purge_expired_locked(dropped_list& dropped) {
  const auto now = std::chrono::steady_clock::now();
  for (auto& q : queues_) {
    std::erase_if(q, [&](queued_task& item) {
      if (item.deadline > now) return false;
      ++stats_.expired;
      if (item.on_dropped) {
        dropped.emplace_back(std::move(item.on_dropped), drop_reason::expired);
      }
      return true;
    });
  }
}

void executor::fire(dropped_list& dropped) {
  for (auto& [handler, reason] : dropped) handler(reason);
  dropped.clear();
}

void executor::insert_locked(std::size_t priority, queued_task item) {
  auto& q = queues_[priority];
  // Earliest-deadline-first within the level: insert before the first
  // strictly-later deadline. Deadline-free tasks carry time_point::max, so
  // they form a FIFO tail behind every deadline-bound entry, and a stream of
  // deadline-free tasks degenerates to the old FIFO exactly.
  const auto pos = std::upper_bound(
      q.begin(), q.end(), item.deadline,
      [](std::chrono::steady_clock::time_point deadline,
         const queued_task& queued) { return deadline < queued.deadline; });
  q.insert(pos, std::move(item));
}

void executor::enqueue_locked(std::size_t priority, queued_task item) {
  insert_locked(priority, std::move(item));
  ++stats_.submitted;
  stats_.peak_queue_depth =
      std::max<std::uint64_t>(stats_.peak_queue_depth, total_queued_locked());
}

void executor::promote_aged_locked() {
  if (config_.aging_step_seconds <= 0.0) return;
  // Scan the non-top levels back-to-front popping every task whose wait has
  // crossed at least one aging step; re-insert at the target level's EDF
  // position. Promotion count is levels-per-step — a task two steps old in
  // the background level jumps straight to interactive, matching the
  // effective priority it would have accrued under continuous aging.
  for (std::size_t level = 1; level < k_executor_priority_levels; ++level) {
    auto& q = queues_[level];
    for (std::size_t i = q.size(); i-- > 0;) {
      const double age = q[i].enqueued.seconds();
      const auto gain =
          static_cast<std::size_t>(age / config_.aging_step_seconds);
      if (gain == 0) continue;
      queued_task item = std::move(q[i]);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      const std::size_t target = level > gain ? level - gain : 0;
      insert_locked(target, std::move(item));
      ++stats_.promoted;
    }
  }
}

bool executor::try_post(task t, task_options opts) {
  opts.priority = std::min(opts.priority, k_executor_priority_levels - 1);
  dropped_list dropped;
  bool admitted = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("executor::try_post: executor is shutting down");
    }
    if (total_queued_locked() >= config_.queue_capacity) {
      purge_expired_locked(dropped);
    }
    bool have_room = total_queued_locked() < config_.queue_capacity;
    if (!have_room) {
      // Displacement: shed the *back* entry of the *least* urgent populated
      // level strictly below the arrival. Under EDF ordering the back is the
      // latest-deadline entry — the newest deadline-free task when any exist
      // — so the victim level keeps its most urgent waiters intact.
      for (std::size_t level = k_executor_priority_levels;
           level-- > opts.priority + 1;) {
        auto& q = queues_[level];
        if (q.empty()) continue;
        queued_task victim = std::move(q.back());
        q.pop_back();
        ++stats_.displaced;
        if (victim.on_dropped) {
          dropped.emplace_back(std::move(victim.on_dropped),
                               drop_reason::displaced);
        }
        have_room = true;
        break;
      }
    }
    if (have_room) {
      enqueue_locked(opts.priority,
                     queued_task{util::timer{}, std::move(t), opts.deadline,
                                 std::move(opts.on_dropped)});
      admitted = true;
    } else {
      ++stats_.rejected;
    }
  }
  if (admitted) not_empty_.notify_one();
  fire(dropped);
  return admitted;
}

std::size_t executor::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_queued_locked();
}

std::size_t executor::backlog_ahead(std::size_t priority) const {
  priority = std::min(priority, k_executor_priority_levels - 1);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (std::size_t level = 0; level <= priority; ++level) {
    total += queues_[level].size();
  }
  return total;
}

executor_stats executor::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  executor_stats s = stats_;
  s.queue_depth = total_queued_locked();
  return s;
}

std::vector<double> executor::running_elapsed_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> elapsed;
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    if (busy_[i] != 0) elapsed.push_back(busy_since_[i].seconds());
  }
  return elapsed;
}

void executor::worker_loop(std::size_t worker_id) {
  // One pop per lock hold: either a runnable task, an expired task whose
  // drop handler must fire *before* the worker can sleep again (a handler
  // resolves a waiter's promise — deferring it until the next arrival would
  // strand that waiter), or the drained-shutdown signal.
  for (;;) {
    dropped_list dropped;
    std::optional<queued_task> item;
    bool drained = false;
    double wait = 0.0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock,
                      [this] { return stopping_ || total_queued_locked() > 0; });
      if (total_queued_locked() == 0) {
        drained = true;  // stopping and fully drained
      } else {
        promote_aged_locked();
        auto& q = *std::find_if(queues_.begin(), queues_.end(),
                                [](const auto& level) { return !level.empty(); });
        queued_task picked = std::move(q.front());
        q.pop_front();
        if (picked.deadline <= std::chrono::steady_clock::now()) {
          // Expired in the queue: drop instead of burning the worker.
          ++stats_.expired;
          if (picked.on_dropped) {
            dropped.emplace_back(std::move(picked.on_dropped),
                                 drop_reason::expired);
          }
        } else {
          wait = picked.enqueued.seconds();
          stats_.total_queue_wait_seconds += wait;
          stats_.max_queue_wait_seconds =
              std::max(stats_.max_queue_wait_seconds, wait);
          busy_[worker_id] = 1;
          busy_since_[worker_id] = util::timer{};
          item = std::move(picked);
        }
      }
    }
    fire(dropped);
    if (drained) return;
    if (!item) continue;  // dropped an expired task: look again
    util::timer run_timer;
    try {
      item->work(wait);
    } catch (...) {
      // A task that lets an exception escape must not unwind the worker
      // (std::terminate would take the whole process down). Tasks own their
      // error reporting — the service's wrapper routes failures into the
      // query handle; a bare task that throws is counted and dropped.
      const std::lock_guard<std::mutex> guard(mutex_);
      ++stats_.tasks_failed;
    }
    const std::lock_guard<std::mutex> guard(mutex_);
    busy_[worker_id] = 0;
    // Executed counts *completions*, booked together with the time they
    // cost: mean_exec_seconds() must not be diluted by tasks still running,
    // or the cost model's residual-work estimate undercounts exactly when it
    // matters (a long solve mid-flight).
    ++stats_.executed;
    stats_.total_exec_seconds += run_timer.seconds();
  }
}

}  // namespace dsteiner::service

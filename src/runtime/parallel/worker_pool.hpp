// Persistent worker pool backing the threaded visitor engine.
//
// One pool is created per solve (or borrowed from the caller) and reused by
// every engine phase — Voronoi growth and tree-edge walk-backs — and by the
// off-engine work between them (the phase-2 cross-edge scan, the allreduce
// fan-out), so a solve pays thread start-up once, not once per phase.
// run() executes one job on every worker and blocks until all return; jobs
// receive their worker id so the engine can stripe ranks over workers.
//
// Generation-stamped dispatch: workers sleep on a generation counter, run()
// bumps it and waits for the completion count. The pool is deliberately not a
// task queue — the engine owns scheduling; the pool only owns threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsteiner::runtime::parallel {

class worker_pool {
 public:
  using job = std::function<void(std::size_t worker_id)>;

  /// Spawns `num_threads` workers (0 = one per hardware thread, at least 1).
  explicit worker_pool(std::size_t num_threads);

  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  /// Wakes idle workers and joins them.
  ~worker_pool();

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Runs `j(worker_id)` on every worker and blocks until all complete.
  /// Exceptions escaping a job terminate (engine jobs do not throw); do not
  /// call run() from inside a job.
  void run(const job& j);

  /// Default worker count for a budget of 0: hardware concurrency, >= 1.
  [[nodiscard]] static std::size_t default_threads() noexcept;

 private:
  void worker_loop(std::size_t worker_id);

  std::mutex mutex_;
  std::condition_variable wake_;      ///< workers wait for a new generation
  std::condition_variable finished_;  ///< run() waits for completions
  const job* current_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t completed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace dsteiner::runtime::parallel

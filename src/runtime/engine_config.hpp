// Execution configuration shared by the visitor engines.
//
// Split out of visitor_engine.hpp so the threaded backend
// (runtime/parallel/thread_engine.hpp) and the cooperative single-thread
// engine can both consume the same configuration without a circular include:
// run_visitors() dispatches on execution_mode at the call site.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/mailbox.hpp"
#include "runtime/partition.hpp"
#include "runtime/perf_model.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::obs {
class engine_probe;
}  // namespace dsteiner::obs

namespace dsteiner::runtime {

namespace parallel {
class worker_pool;
}  // namespace parallel

enum class execution_mode {
  async,  ///< immediate delivery: communication overlaps computation
  bsp,    ///< deliveries held until the round boundary (superstep model)
  /// Real per-rank worker threads with lock-free SPSC channels between ranks
  /// and a counting superstep barrier (runtime/parallel/). A cold solve
  /// scales with cores; output is bit-identical to the other modes.
  parallel_threads,
};

struct engine_config {
  queue_policy policy = queue_policy::priority;
  execution_mode mode = execution_mode::async;
  std::size_t batch_size = 64;  ///< visitors a rank drains per round
  cost_model costs{};

  /// parallel_threads only: worker threads backing the per-rank execution.
  /// 0 = one per hardware thread, capped at the rank count. Ranks are striped
  /// over workers (rank r runs on worker r % num_threads), so any thread
  /// count between 1 and num_ranks is valid.
  std::size_t num_threads = 0;

  /// parallel_threads only: borrowed persistent worker pool. When null the
  /// engine spins up (and joins) a transient pool for the run; the solver
  /// creates one pool per solve so all phases reuse the same threads.
  parallel::worker_pool* pool = nullptr;

  /// Cooperative cancellation/deadline checkpoint, polled once per round
  /// (cooperative engine) or superstep (threaded engine; the vote is folded
  /// through the barrier so every worker stops at the same superstep). Null
  /// disables the poll. Must outlive the run.
  const util::run_budget* budget = nullptr;

  /// Per-superstep telemetry sink (query-scoped tracing, src/obs/). Workers
  /// record into probe lane w (single-writer); the cooperative engine uses
  /// lane 0. Null (the default) disables sampling entirely — the engines
  /// never read from the probe, so execution and output are identical either
  /// way. Must outlive the run. Same hash-exclusion rule as `budget`.
  obs::engine_probe* probe = nullptr;
};

/// A handler that bounds each rank's batch to a frontier window under
/// queue_policy::priority, on every engine (cooperative, threaded and
/// net::superstep_engine). `frontier_window()` is Δ in priority units, read
/// once when an engine is built.
template <typename Handler>
concept windowed_handler = requires(const Handler& h) {
  { h.frontier_window() } -> std::convertible_to<std::uint64_t>;
};

/// Δ that bounds nothing: FIFO runs and handlers without the opt-in.
inline constexpr std::uint64_t k_no_window = UINT64_MAX;

/// Δ for `handler` under `config`: its frontier_window() for a windowed
/// handler under the priority policy, else k_no_window.
template <typename Handler>
[[nodiscard]] std::uint64_t frontier_window_of(const Handler& handler,
                                               const engine_config& config) {
  if constexpr (windowed_handler<Handler>) {
    if (config.policy == queue_policy::priority) {
      return handler.frontier_window();
    }
  }
  return k_no_window;
}

/// The batch bound m + Δ for least pending priority m, saturating at
/// UINT64_MAX (which pops without a bound).
[[nodiscard]] constexpr std::uint64_t frontier_bound(
    std::uint64_t frontier, std::uint64_t window) noexcept {
  return frontier > UINT64_MAX - window ? UINT64_MAX : frontier + window;
}

/// The send interface every engine hands to Handler::visit: to_vertex
/// routes a visitor to the owner of its target(), to_rank to an explicit
/// rank (delegate relays). Delivery is the engine's
/// `send(visitor, from_rank, to_rank)`.
template <typename Engine, typename Visitor>
class engine_emitter {
 public:
  engine_emitter(Engine& engine, const partitioner& parts,
                 int from_rank) noexcept
      : engine_(&engine), parts_(&parts), from_rank_(from_rank) {}

  void to_vertex(Visitor v) {
    const int to = parts_->owner(v.target());
    engine_->send(std::move(v), from_rank_, to);
  }

  void to_rank(int rank, Visitor v) {
    engine_->send(std::move(v), from_rank_, rank);
  }

 private:
  Engine* engine_;
  const partitioner* parts_;
  int from_rank_;
};

}  // namespace dsteiner::runtime

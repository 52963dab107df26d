// The handle side of the service's request/handle API.
//
// `steiner_service::submit(request)` returns a `query_handle`: a shared view
// of the request's lifecycle with
//
//   status() — non-blocking lifecycle probe (queued/running/done/...)
//   cancel() — cooperative stop: a queued request resolves without running,
//              a running one stops at the next solver checkpoint
//   poll()   — non-blocking result fetch (nullopt until done)
//   get()    — blocking fetch; rethrows failures, operation_cancelled for
//              cancelled/expired requests, request_rejected for shed ones
//
// Handles are cheap shared_ptr copies; dropping every copy does NOT cancel
// the request (fire-and-forget is legal) — cancellation is always explicit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>

#include "service/query.hpp"
#include "service/request.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::service {

class steiner_service;

/// Admission-time completion estimates for one request: the value admission
/// decisions actually used, plus the two side-by-side predictions it chose
/// between (the learned cost model and the global per-path p50 baseline).
/// All zero when admission never priced the request.
struct admission_estimates {
  double used = 0.0;      ///< compared against the deadline, fed to the trace
  double baseline = 0.0;  ///< global per-path p50 path (always computed)
  double model = 0.0;     ///< learned cost model (0 = no prediction yet)
  bool model_used = false;  ///< used == model (the model was ready)
};

namespace detail {

/// Shared state between the service (producer side) and every handle copy.
/// The service resolves `promise` exactly once and stores the terminal
/// status *before* resolving, so a reader woken by the future observes the
/// final status.
struct request_state {
  std::uint64_t id = 0;
  priority_class priority = priority_class::interactive;
  std::atomic<request_status> status{request_status::queued};
  std::atomic<reject_reason> rejection{reject_reason::none};

  /// Handle-level cancellation (query_handle::cancel) feeding budget.cancel;
  /// budget.user_cancel carries the request's own token. The budget lives
  /// here so it outlives the solve no matter when the caller drops handles.
  util::cancel_source canceller;
  util::run_budget budget;

  /// Admission-time completion estimates (learned model + p50 baseline); all
  /// zero when no estimate was computed. Written before the task is posted,
  /// read by the worker (happens-before via the executor queue).
  admission_estimates estimates{};

  std::promise<query_result> promise;
  /// Taken from `promise` before the task is posted.
  std::shared_future<query_result> future;
};

}  // namespace detail

class query_handle {
 public:
  /// Empty handle (valid() == false); accessors other than valid() throw
  /// std::logic_error.
  query_handle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Monotonic per-service submission id (distinct from query_result::
  /// query_id, which counts *executed* queries).
  [[nodiscard]] std::uint64_t id() const { return state().id; }
  [[nodiscard]] priority_class priority() const { return state().priority; }

  [[nodiscard]] request_status status() const {
    return state().status.load(std::memory_order_acquire);
  }

  /// Why the request was rejected (meaningful once status() == rejected).
  [[nodiscard]] reject_reason rejection() const {
    return state().rejection.load(std::memory_order_acquire);
  }

  /// True once the request reached a terminal state.
  [[nodiscard]] bool finished() const {
    switch (status()) {
      case request_status::queued:
      case request_status::running: return false;
      default: return true;
    }
  }

  /// Requests cooperative cancellation. Returns true if this call was the
  /// first to fire the handle's source. Best-effort: a request already past
  /// its last checkpoint still completes (status ends up done).
  bool cancel() { return state().canceller.request_cancel(); }

  /// Non-blocking: the result if the request completed successfully,
  /// nullopt otherwise (still in flight, or terminal-without-result — check
  /// status()). Never throws on failed/cancelled requests; get() does.
  [[nodiscard]] std::optional<query_result> poll() const;

  /// The request's query-scoped trace: null until the request completed
  /// successfully, and always null when the service ran with tracing off or
  /// the query never reached execute() (rejected/expired in the queue).
  [[nodiscard]] std::shared_ptr<const obs::query_trace> trace() const;

  /// Convenience: the finalized trace summary (latency splits, span totals,
  /// estimate-vs-actual error). nullopt whenever trace() is null.
  [[nodiscard]] std::optional<obs::trace_summary> trace_summary() const;

  /// Admission-time completion estimates for this request — the learned
  /// cost model's prediction and the global-p50 baseline side by side, plus
  /// which one admission used. All zero when admission never priced the
  /// request (no deadline, and tracing, cost model and SLOs all off).
  [[nodiscard]] admission_estimates admission() const {
    return state().estimates;
  }

  /// Blocks until terminal. Returns the result for done requests; throws
  /// util::operation_cancelled (cancelled/expired), request_rejected
  /// (rejected), or the solver's exception (failed).
  [[nodiscard]] query_result get() const;

  /// Blocks until the request reaches a terminal state.
  void wait() const { state().future.wait(); }

  /// Bounded wait; true when terminal.
  [[nodiscard]] bool wait_for(std::chrono::steady_clock::duration d) const {
    return state().future.wait_for(d) == std::future_status::ready;
  }

 private:
  friend class steiner_service;
  explicit query_handle(std::shared_ptr<detail::request_state> state) noexcept
      : state_(std::move(state)) {}

  [[nodiscard]] detail::request_state& state() const;

  std::shared_ptr<detail::request_state> state_;
};

}  // namespace dsteiner::service

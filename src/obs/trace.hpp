// Query-scoped span tracing.
//
// A `query_trace` is created by the service when a request is admitted and
// rides the whole lifecycle: queue wait, solve phases (voronoi / local-min /
// global-min / mst / pruning), distshare interactions (fragment borrows,
// oracle prunes, donor picks), and — through the embedded `engine_probe` —
// per-rank, per-superstep engine activity. It is deliberately simple:
//
//   * spans and events are appended by ONE thread at a time (the executor
//     worker running the solve); the engine probe's lanes carry the only
//     concurrent writers, and those are single-writer per lane;
//   * storage is bounded (span/event capacities, probe lane capacity) so an
//     adversarial query cannot balloon memory — overflow drops and counts;
//   * nothing read from the trace influences the solve, preserving the
//     bit-identity contract (tracing on/off produces identical trees).
//
// After the solve the service calls `finalize()` to freeze a `trace_summary`
// (totals + admission-estimate error + measured-vs-model residual) and the
// whole object is published read-only via shared_ptr to the query handle,
// the slow-query log, and the /tracez debug route. `to_chrome_json()`
// renders the standard Chrome trace_event array form, loadable in Perfetto
// or chrome://tracing: tid 0 is the service-level span tree, tid 1+w is
// engine worker w's compute/barrier timeline, and per-rank counter tracks
// carry visitor/message/backlog series.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/engine_probe.hpp"

namespace dsteiner::obs {

/// Knobs for per-query tracing. Excluded from the service config hash —
/// observability never changes answers, so cached results stay valid across
/// tracing reconfigurations (same rule as util::run_budget).
struct trace_config {
  bool enabled = true;
  std::size_t span_capacity = 256;        ///< max spans per query
  std::size_t event_capacity = 256;       ///< max point events per query
  std::size_t samples_per_lane = 4096;    ///< max probe samples per worker lane
  /// Queries whose total latency meets this threshold are captured by the
  /// slow-query log. <= 0 disables capture.
  double slow_query_threshold_seconds = 0.250;
  std::size_t slow_log_capacity = 32;     ///< retained slow traces (ring)
  /// Always-on head sampling: even with `enabled` false, roughly one in
  /// round(1 / sample_rate) queries gets a full trace captured into the
  /// flight-recorder ring, so /tracez and the cost model see representative
  /// traffic without callers opting in. Deterministic (admission counter
  /// modulo, not RNG) so tests can assert exact rates. <= 0 disables.
  double sample_rate = 1.0 / 64.0;
  std::size_t flight_recorder_capacity = 64;  ///< retained sampled traces
  /// Max merged cluster-telemetry slices per query (distributed solves:
  /// ranks x supersteps); overflow drops and counts like spans/events.
  std::size_t rank_slice_capacity = 4096;
};

/// One closed interval of work. Offsets are seconds since the trace origin
/// (admission time), so the queue-wait span starts at ~0 by construction.
struct span {
  const char* name = "";      ///< static string (phase_names / literals)
  const char* category = "";  ///< "service" | "phase" | "distshare"
  double start_seconds = 0.0;
  double dur_seconds = 0.0;
  std::uint64_t supersteps = 0;
  std::uint64_t visitors = 0;
  std::uint64_t messages = 0;
  double modelled_seconds = 0.0;  ///< perf_model prediction for this span
};

/// A point-in-time annotation ("fragment_borrow", "oracle_prune", ...).
struct trace_event {
  const char* name = "";
  double at_seconds = 0.0;
  double value = 0.0;
};

/// One rank's activity in one superstep of a distributed solve, merged in by
/// the service from the runtime/net cluster telemetry (rank 0's aggregation).
/// Remote ranks' clocks are not comparable to the trace origin, so the Chrome
/// exporter lays each rank's slices end to end from a per-rank cursor —
/// relative durations and cross-rank skew are faithful, absolute alignment
/// with the service track is not.
struct rank_slice {
  const char* phase = "";  ///< static string (telemetry phase name)
  std::int32_t rank = 0;
  std::uint32_t superstep = 0;
  double compute_seconds = 0.0;
  double send_flush_seconds = 0.0;
  double recv_wait_seconds = 0.0;  ///< peers' data frames and votes
  std::uint64_t visitors = 0;
  std::uint64_t bytes_sent = 0;  ///< data-frame wire bytes to all peers
};

/// The cheap digest attached to query_handle / query_result: everything a
/// caller needs to decide "was this query healthy" without walking spans.
struct trace_summary {
  std::uint64_t request_id = 0;
  std::uint64_t query_id = 0;
  double queue_wait_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;
  /// dispatch()'s completion estimate at admission; NaN-free: 0 when the
  /// request bypassed admission estimation (direct submit paths).
  double admission_estimate_seconds = 0.0;
  /// total - estimate (signed: positive means slower than promised).
  double estimate_error_seconds = 0.0;
  std::uint64_t supersteps = 0;   ///< engine supersteps/rounds, all phases
  std::uint64_t visitors = 0;     ///< visitor dispatches, all phases
  std::uint64_t messages = 0;     ///< messages sent, all phases
  double modelled_seconds = 0.0;  ///< perf_model simulated time for the solve
  /// solve_seconds - modelled_seconds (signed model residual).
  double model_error_seconds = 0.0;
  std::size_t spans = 0;
  std::size_t samples = 0;
  std::uint64_t dropped = 0;  ///< spans + events + samples lost to capacity

  // Distributed cluster attribution (solves routed via distributed.world
  // >= 2; all-zero otherwise). Folded from the merged rank telemetry's
  // straggler report via set_cluster_summary().
  std::uint32_t cluster_world = 0;
  std::uint64_t cluster_supersteps = 0;  ///< attributed superstep groups
  std::int32_t cluster_critical_rank = -1;  ///< most frequent critical rank
  std::uint64_t cluster_critical_supersteps = 0;
  double cluster_max_compute_skew = 0.0;  ///< worst max/median compute ratio
  double cluster_comm_wait_fraction = 0.0;  ///< comm share of all rank time
};

class query_trace {
 public:
  /// `pre_seconds` back-dates the origin so work that happened before the
  /// trace object existed (admission bookkeeping, queue wait already elapsed
  /// when tracing starts late) still lands at positive offsets.
  query_trace(const trace_config& cfg, std::size_t engine_lanes,
              double pre_seconds = 0.0);

  query_trace(const query_trace&) = delete;
  query_trace& operator=(const query_trace&) = delete;

  /// Seconds since the trace origin (monotonic clock).
  [[nodiscard]] double now_seconds() const noexcept;

  /// Records a closed span. Single-writer; drops (counted) at capacity.
  void add_span(span s) noexcept;

  /// Convenience: closes a span that started at `start_seconds` and ends now.
  void close_span(const char* name, const char* category, double start_seconds,
                  std::uint64_t supersteps = 0, std::uint64_t visitors = 0,
                  std::uint64_t messages = 0,
                  double modelled_seconds = 0.0) noexcept;

  /// Records a point event at the current offset. Single-writer; bounded.
  void add_event(const char* name, double value = 0.0) noexcept;

  /// Records one merged cluster-telemetry slice (distributed solves).
  /// Single-writer like spans/events; drops (counted) at capacity.
  void add_rank_slice(rank_slice s) noexcept;

  /// Writes the distributed straggler digest into the summary. Independent
  /// of finalize() (which never touches the cluster_* fields), so the
  /// service may call them in either order.
  void set_cluster_summary(std::uint32_t world, std::uint64_t supersteps,
                           std::int32_t critical_rank,
                           std::uint64_t critical_supersteps,
                           double max_compute_skew,
                           double comm_wait_fraction) noexcept;

  /// The engine-facing sample sink. Its lifetime is the trace's; the solver
  /// config carries `&probe()` down into engine_config.
  [[nodiscard]] engine_probe& probe() noexcept { return probe_; }
  [[nodiscard]] const engine_probe& probe() const noexcept { return probe_; }

  /// Freezes the summary. Call exactly once, after all writers are done.
  void finalize(std::uint64_t request_id, std::uint64_t query_id,
                double queue_wait_seconds, double solve_seconds,
                double total_seconds, double admission_estimate_seconds,
                double modelled_seconds) noexcept;

  [[nodiscard]] const trace_summary& summary() const noexcept {
    return summary_;
  }

  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<trace_event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<rank_slice>& rank_slices() const noexcept {
    return rank_slices_;
  }

  /// Renders the Chrome trace_event JSON array ({"traceEvents":[...]}).
  /// Read-only; call after finalize().
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  trace_config cfg_;
  std::vector<span> spans_;
  std::vector<trace_event> events_;
  std::vector<rank_slice> rank_slices_;
  std::uint64_t dropped_ = 0;
  engine_probe probe_;
  trace_summary summary_;
};

}  // namespace dsteiner::obs

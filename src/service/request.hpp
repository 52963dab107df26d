// The request side of the service's request/handle API.
//
// A `request` is a `query` plus quality-of-service: a priority class, an
// absolute deadline and a caller-held cancellation token. `submit(request)`
// returns a `query_handle` (query_handle.hpp) instead of a bare future, so
// the caller can cancel, poll status, or block — the §I workflow fires bursts
// of exploratory queries and abandons most of them, which a plain
// future-based API cannot express.
//
// Admission is cost-aware: the service predicts completion time from its
// latency histograms and the executor backlog, and a request whose deadline
// is predictably unmeetable is rejected up front (reject_reason::
// deadline_unmeetable) instead of wasting a queue slot. Admitted requests
// enter a priority queue; under saturation, lower priority classes are shed
// first and queued entries past their deadline are expired rather than run.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "service/query.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::service {

/// Admission priority classes, most urgent first. The executor drains the
/// classes in order (FIFO within a class), and under a full queue a
/// higher-class arrival displaces the newest lower-class queued entry.
enum class priority_class : std::uint8_t {
  interactive = 0,  ///< a human is waiting (the §I exploration loop)
  batch = 1,        ///< latency-tolerant bulk work (report generation)
  background = 2,   ///< best-effort (cache refreshes, prefetching)
};

inline constexpr std::size_t k_priority_classes = 3;

[[nodiscard]] constexpr const char* to_string(priority_class p) noexcept {
  switch (p) {
    case priority_class::interactive: return "interactive";
    case priority_class::batch: return "batch";
    case priority_class::background: return "background";
  }
  return "?";
}

[[nodiscard]] constexpr std::size_t priority_index(priority_class p) noexcept {
  const auto i = static_cast<std::size_t>(p);
  return i < k_priority_classes ? i : k_priority_classes - 1;
}

/// A query plus its QoS envelope. The query fields mean exactly what they
/// mean on `query` (query.hpp).
struct request {
  query q;

  priority_class priority = priority_class::interactive;
  /// Absolute completion deadline. Admission rejects the request when the
  /// cost model predicts it cannot be met; once admitted, the deadline
  /// expires the request in the queue or stops it mid-solve at the next
  /// solver checkpoint. nullopt = unbounded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Caller-held cooperative cancellation: cancelling the source this token
  /// came from stops the request exactly like query_handle::cancel(). A
  /// default token never cancels. One token may be shared by many requests
  /// (cancel a whole session in one call).
  util::cancel_token cancel{};

  request() = default;
  explicit request(query base) : q(std::move(base)) {}

  /// Relative-deadline convenience: deadline = now + timeout.
  request& within(std::chrono::steady_clock::duration timeout) {
    deadline = std::chrono::steady_clock::now() + timeout;
    return *this;
  }
};

/// How a request terminated without producing a result.
enum class reject_reason : std::uint8_t {
  none = 0,
  queue_full,           ///< admission queue saturated (possibly displaced)
  deadline_unmeetable,  ///< cost model predicted the deadline cannot be met
};

[[nodiscard]] constexpr const char* to_string(reject_reason r) noexcept {
  switch (r) {
    case reject_reason::none: return "none";
    case reject_reason::queue_full: return "queue-full";
    case reject_reason::deadline_unmeetable: return "deadline-unmeetable";
  }
  return "?";
}

/// Surfaced by query_handle::get() for requests that were never admitted (or
/// were shed from the queue); `reason()` says why.
class request_rejected : public std::runtime_error {
 public:
  explicit request_rejected(reject_reason why)
      : std::runtime_error(std::string("request rejected: ") + to_string(why)),
        why_(why) {}

  [[nodiscard]] reject_reason reason() const noexcept { return why_; }

 private:
  reject_reason why_;
};

/// Lifecycle of a submitted request, observable through query_handle::
/// status(). Terminal states: done, cancelled, expired, rejected, failed.
enum class request_status : std::uint8_t {
  queued,     ///< admitted, waiting for a worker
  running,    ///< a worker is executing it
  done,       ///< result available (query_handle::get() returns it)
  cancelled,  ///< stopped by cancel() or the request token
  expired,    ///< deadline passed (queued or mid-solve)
  rejected,   ///< never admitted / shed from the queue (see reject_reason)
  failed,     ///< the solve threw (get() rethrows)
};

[[nodiscard]] constexpr const char* to_string(request_status s) noexcept {
  switch (s) {
    case request_status::queued: return "queued";
    case request_status::running: return "running";
    case request_status::done: return "done";
    case request_status::cancelled: return "cancelled";
    case request_status::expired: return "expired";
    case request_status::rejected: return "rejected";
    case request_status::failed: return "failed";
  }
  return "?";
}

}  // namespace dsteiner::service

// Counting superstep barrier with termination detection.
//
// The threaded engine runs in supersteps separated by barriers. Each arrival
// contributes (a) the number of messages its ranks still have outstanding
// (mailbox backlog plus messages just emitted into SPSC channels), (b) the
// maximum simulated work any of its ranks performed this superstep, and (c)
// the least priority among those outstanding messages (its ranks' mailbox
// tops and the least priority they pushed into a channel). The last
// arriver of an epoch folds the contributions into the epoch aggregate and
// wakes everyone; all parties observe the *same* aggregate, so the engine's
// termination decision ("global quiescence: zero outstanding messages") is
// taken consistently by every worker with no extra round trip. The same holds
// for the min-folded priority: it is the global frontier that bounds the
// next superstep's frontier window (see thread_engine.hpp), and because it
// is folded over all ranks it does not depend on how ranks map to workers.
// The fold is in-process only; no wire frame carries it.
//
// Epochs are stamped by a monotonically increasing counter: a party arriving
// for epoch e sleeps until the counter passes e, which makes the barrier
// trivially reusable across the thousands of supersteps of one engine run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace dsteiner::runtime::parallel {

class superstep_barrier {
 public:
  /// One epoch's folded contributions, identical for every party.
  struct aggregate {
    std::uint64_t outstanding = 0;  ///< undelivered messages, summed
    double max_work = 0.0;          ///< per-rank simulated work, maximum
    /// Cooperative-stop votes, OR-folded: workers may observe a cancellation
    /// or deadline at different instants, so the barrier is what turns those
    /// individual observations into one consistent stop decision — every
    /// party sees the same flag and exits the same superstep (no worker left
    /// waiting on a barrier its peers abandoned).
    bool cancel = false;
    /// Least pending mailbox priority, min-folded; UINT64_MAX when no party
    /// contributes one. The threaded engine's frontier window is bounded
    /// from it, so every party must see the same value.
    std::uint64_t min_priority = UINT64_MAX;
  };

  explicit superstep_barrier(std::size_t parties);

  /// Contributes to the current epoch and blocks until all parties arrive.
  /// Returns the epoch's aggregate.
  aggregate arrive_and_wait(std::uint64_t outstanding, double work,
                            bool cancel = false,
                            std::uint64_t min_priority = UINT64_MAX);

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  [[nodiscard]] std::uint64_t epoch() const;

 private:
  const std::size_t parties_;
  mutable std::mutex mutex_;
  std::condition_variable released_;
  std::size_t arrived_ = 0;
  std::uint64_t epoch_ = 0;
  aggregate pending_{};  ///< contributions of the in-progress epoch
  aggregate result_{};   ///< aggregate of the last completed epoch
};

}  // namespace dsteiner::runtime::parallel

// Counting superstep barrier with termination detection.
//
// The threaded engine runs in supersteps separated by barriers. Each arrival
// contributes (a) the number of messages its ranks still have outstanding —
// mailbox backlog plus messages just emitted into SPSC channels — and (b) the
// maximum simulated work any of its ranks performed this superstep. The last
// arriver of an epoch folds the contributions into the epoch aggregate and
// wakes everyone; all parties observe the *same* aggregate, so the engine's
// termination decision ("global quiescence: zero outstanding messages") is
// taken consistently by every worker with no extra round trip.
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
  };

  explicit superstep_barrier(std::size_t parties);

  /// Contributes to the current epoch and blocks until all parties arrive.
  /// Returns the epoch's aggregate.
  aggregate arrive_and_wait(std::uint64_t outstanding, double work,
                            bool cancel = false);

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

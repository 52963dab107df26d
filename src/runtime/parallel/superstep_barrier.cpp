#include "runtime/parallel/superstep_barrier.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsteiner::runtime::parallel {

superstep_barrier::superstep_barrier(std::size_t parties) : parties_(parties) {
  if (parties == 0) {
    throw std::invalid_argument("superstep_barrier: parties must be > 0");
  }
}

std::uint64_t superstep_barrier::epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

superstep_barrier::aggregate superstep_barrier::arrive_and_wait(
    std::uint64_t outstanding, double work, bool cancel,
    std::uint64_t min_priority) {
  std::unique_lock<std::mutex> lock(mutex_);
  pending_.outstanding += outstanding;
  pending_.max_work = std::max(pending_.max_work, work);
  pending_.cancel = pending_.cancel || cancel;
  pending_.min_priority = std::min(pending_.min_priority, min_priority);
  if (++arrived_ == parties_) {
    result_ = pending_;
    pending_ = {};
    arrived_ = 0;
    ++epoch_;
    released_.notify_all();
    return result_;
  }
  const std::uint64_t my_epoch = epoch_;
  released_.wait(lock, [&] { return epoch_ != my_epoch; });
  return result_;
}

}  // namespace dsteiner::runtime::parallel

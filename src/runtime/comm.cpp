#include "runtime/comm.hpp"

namespace dsteiner::runtime {

void communicator::charge_collective(std::uint64_t bytes,
                                     phase_metrics& metrics) const {
  runtime::charge_collective(metrics, costs_, num_ranks_, bytes);
}

}  // namespace dsteiner::runtime

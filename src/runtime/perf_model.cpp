#include "runtime/perf_model.hpp"

#include <algorithm>
#include <cmath>

namespace dsteiner::runtime {

void phase_metrics::merge(const phase_metrics& other) noexcept {
  wall_seconds += other.wall_seconds;
  sim_units += other.sim_units;
  rounds += other.rounds;
  visitors_processed += other.visitors_processed;
  visitors_skipped += other.visitors_skipped;
  previsit_rejections += other.previsit_rejections;
  messages_local += other.messages_local;
  messages_remote += other.messages_remote;
  collective_calls += other.collective_calls;
  collective_bytes += other.collective_bytes;
  queue_peak_items = std::max(queue_peak_items, other.queue_peak_items);
  queue_peak_bytes = std::max(queue_peak_bytes, other.queue_peak_bytes);
}

void charge_collective(phase_metrics& metrics, const cost_model& costs,
                       int ranks, std::uint64_t bytes) noexcept {
  ++metrics.collective_calls;
  metrics.collective_bytes += bytes;
  const double log_ranks =
      ranks > 1 ? std::log2(static_cast<double>(ranks)) : 1.0;
  metrics.sim_units += costs.collective_alpha * log_ranks +
                       costs.collective_per_byte * static_cast<double>(bytes);
}

phase_metrics& phase_breakdown::phase(const std::string& name) {
  return phases_[name];
}

const phase_metrics* phase_breakdown::find(const std::string& name) const {
  const auto it = phases_.find(name);
  return it == phases_.end() ? nullptr : &it->second;
}

phase_metrics phase_breakdown::total() const {
  phase_metrics sum;
  for (const auto& [name, metrics] : phases_) sum.merge(metrics);
  return sum;
}

}  // namespace dsteiner::runtime

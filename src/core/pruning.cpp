#include "core/pruning.hpp"

#include <unordered_set>

#include "util/hash.hpp"
#include "util/timer.hpp"

namespace dsteiner::core {

runtime::phase_metrics prune_cross_edges(
    const runtime::communicator& comm,
    std::vector<cross_edge_map>& per_rank_en,
    std::span<const seed_pair> mst_pairs) {
  runtime::phase_metrics metrics;
  util::timer wall;

  const std::unordered_set<seed_pair, util::pair_hash> keep(mst_pairs.begin(),
                                                            mst_pairs.end());
  for (auto& local : per_rank_en) {
    std::erase_if(local, [&](const auto& item) {
      return !keep.contains(item.first);
    });
  }

  // Uniqueness collective: Allreduce(MIN) over the surviving entries (Alg. 5
  // lines 13-15). The maps were already globally reduced, so every rank holds
  // the same winners and the collective only moves bytes: charge it as one
  // element-wise allreduce of the surviving cross_edge_entry buffer.
  const std::uint64_t bytes =
      per_rank_en.front().size() * sizeof(cross_edge_entry);
  if (bytes != 0) {
    comm.charge_collective(bytes, metrics);
    comm.note_buffer_bytes(bytes);
  }

  metrics.wall_seconds = wall.seconds();
  return metrics;
}

}  // namespace dsteiner::core

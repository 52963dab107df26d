#include "graph/csr_graph.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "util/hash.hpp"

namespace dsteiner::graph {

namespace {

unsigned __int128 sum_weights(const std::vector<weight_t>& weights) {
  unsigned __int128 sum = 0;
  for (const weight_t w : weights) sum += w;
  return sum;
}

}  // namespace

csr_graph csr_graph::from_sorted_parts(std::vector<std::uint64_t> offsets,
                                       std::vector<vertex_id> targets,
                                       std::vector<weight_t> weights) {
  assert(!offsets.empty() && offsets.front() == 0);
  assert(offsets.back() == targets.size());
  assert(targets.size() == weights.size());
#ifndef NDEBUG
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    assert(offsets[v] <= offsets[v + 1]);
    for (std::uint64_t i = offsets[v] + 1; i < offsets[v + 1]; ++i) {
      assert((std::pair{targets[i - 1], weights[i - 1]} <=
              std::pair{targets[i], weights[i]}));
    }
  }
#endif
  csr_graph g;
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  g.weights_ = std::move(weights);
  g.fingerprint_ = util::hash_range(g.offsets_.data(), g.offsets_.size(), 0x5d5a);
  g.fingerprint_ =
      util::hash_range(g.targets_.data(), g.targets_.size(), g.fingerprint_);
  g.fingerprint_ =
      util::hash_range(g.weights_.data(), g.weights_.size(), g.fingerprint_);
  g.total_arc_weight_ = sum_weights(g.weights_);
  return g;
}

csr_graph::csr_graph(const edge_list& list) {
  const vertex_id n = list.num_vertices();
  offsets_.assign(n + 1, 0);
  for (const auto& e : list.edges()) ++offsets_[e.source + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  targets_.resize(list.size());
  weights_.resize(list.size());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : list.edges()) {
    const std::uint64_t slot = cursor[e.source]++;
    targets_[slot] = e.target;
    weights_[slot] = e.weight;
  }

  // Sort each adjacency row by (target, weight) so neighbor scans are ordered
  // and edge_weight() can early-exit deterministically.
  for (vertex_id v = 0; v < n; ++v) {
    const std::uint64_t begin = offsets_[v], end = offsets_[v + 1];
    std::vector<std::pair<vertex_id, weight_t>> row;
    row.reserve(end - begin);
    for (std::uint64_t i = begin; i < end; ++i) row.emplace_back(targets_[i], weights_[i]);
    std::sort(row.begin(), row.end());
    for (std::uint64_t i = begin; i < end; ++i) {
      targets_[i] = row[i - begin].first;
      weights_[i] = row[i - begin].second;
    }
  }

  fingerprint_ = util::hash_range(offsets_.data(), offsets_.size(), 0x5d5a);
  fingerprint_ = util::hash_range(targets_.data(), targets_.size(), fingerprint_);
  fingerprint_ = util::hash_range(weights_.data(), weights_.size(), fingerprint_);
  total_arc_weight_ = sum_weights(weights_);
}

std::optional<weight_t> csr_graph::edge_weight(vertex_id u, vertex_id v) const noexcept {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  // Rows are sorted by (target, weight): the first hit is the minimum weight.
  return weights(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

std::uint64_t csr_graph::memory_bytes() const noexcept {
  return offsets_.size() * sizeof(std::uint64_t) +
         targets_.size() * sizeof(vertex_id) + weights_.size() * sizeof(weight_t);
}

}  // namespace dsteiner::graph

#include "service/distshare/landmark_oracle.hpp"

#include <algorithm>
#include <tuple>

#include "graph/dijkstra.hpp"
#include "runtime/parallel/worker_pool.hpp"

namespace dsteiner::service::distshare {

namespace {

/// inf-aware addition (unreachable + anything = unreachable).
[[nodiscard]] graph::weight_t sat_add(graph::weight_t a,
                                      graph::weight_t b) noexcept {
  if (a == graph::k_inf_distance || b == graph::k_inf_distance) {
    return graph::k_inf_distance;
  }
  return a + b;
}

}  // namespace

landmark_oracle::landmark_oracle(config cfg) : config_(cfg) {
  config_.num_landmarks = std::max<std::size_t>(1, config_.num_landmarks);
}

void landmark_oracle::advance_epoch(
    std::uint64_t new_fingerprint,
    std::span<const graph::applied_edge_edit> delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  current_fp_ = new_fingerprint;
  if (tables_ == nullptr) return;
  for (const graph::applied_edge_edit& e : delta) {
    // Raised edits grow true distances: stale tables may now *under*estimate,
    // so the upper bounds die. Lowered and no-op edits keep them valid.
    if (e.raised()) upper_valid_ = false;
  }
}

bool landmark_oracle::needs_build(std::uint64_t current_fp) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (tables_ == nullptr) return true;
  if (tables_->fingerprint == current_fp) return false;
  return !(upper_valid_ && current_fp_ == current_fp);
}

void landmark_oracle::build(const graph::csr_graph& g, std::uint64_t fp,
                            const util::run_budget* budget) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (tables_ != nullptr && tables_->fingerprint == fp) return;
  }
  const graph::vertex_id n = g.num_vertices();
  auto fresh = std::make_shared<tables>();
  fresh->fingerprint = fp;
  if (n == 0) {
    const std::lock_guard<std::mutex> lock(mutex_);
    tables_ = std::move(fresh);
    ++builds_;
    upper_valid_ = current_fp_ == fp;
    return;
  }
  const std::size_t k =
      std::min<std::size_t>(config_.num_landmarks, static_cast<std::size_t>(n));

  runtime::parallel::worker_pool pool(
      config_.build_threads != 0
          ? std::min(config_.build_threads, k)
          : std::min(runtime::parallel::worker_pool::default_threads(), k));

  // Landmark 0: highest degree (ties to the smallest id) — hubs bound the
  // most paths. The rest are farthest-point sampled against the trees built
  // so far (degree breaks min-distance ties), which spreads landmarks across
  // the graph and drops one into every component. Trees build in waves of
  // pool-width on the worker pool; the budget checkpoint sits between waves
  // (pool jobs must not throw).
  std::vector<char> selected(n, 0);
  std::vector<graph::weight_t> min_dist(n, graph::k_inf_distance);
  graph::vertex_id first = 0;
  for (graph::vertex_id v = 1; v < n; ++v) {
    if (g.degree(v) > g.degree(first)) first = v;
  }
  fresh->landmarks.push_back(first);
  selected[first] = 1;

  while (fresh->landmarks.size() < k || fresh->dist.size() < k) {
    if (budget != nullptr) budget->check();
    // Build the trees of every selected-but-unbuilt landmark, one wave.
    const std::size_t wave_begin = fresh->dist.size();
    const std::size_t wave_end = fresh->landmarks.size();
    fresh->dist.resize(wave_end);
    pool.run([&](std::size_t worker_id) {
      for (std::size_t i = wave_begin + worker_id; i < wave_end;
           i += pool.size()) {
        fresh->dist[i] =
            graph::dijkstra(g, fresh->landmarks[i]).distance;
      }
    });
    for (std::size_t i = wave_begin; i < wave_end; ++i) {
      const auto& d = fresh->dist[i];
      for (graph::vertex_id v = 0; v < n; ++v) {
        min_dist[v] = std::min(min_dist[v], d[v]);
      }
    }
    if (fresh->landmarks.size() >= k) break;

    // Next wave's landmarks: top pool-width candidates by (min distance to
    // the chosen set desc, degree desc, id asc). Isolated vertices are
    // skipped — their trees bound nothing.
    const std::size_t want =
        std::min(pool.size(), k - fresh->landmarks.size());
    std::vector<graph::vertex_id> candidates;
    candidates.reserve(static_cast<std::size_t>(n));
    for (graph::vertex_id v = 0; v < n; ++v) {
      if (selected[v] == 0 && g.degree(v) > 0 && min_dist[v] > 0) {
        candidates.push_back(v);
      }
    }
    if (candidates.empty()) break;  // graph smaller than requested K
    const auto better = [&](graph::vertex_id a, graph::vertex_id b) {
      return std::tuple{min_dist[a], g.degree(a),
                        ~static_cast<graph::vertex_id>(a)} >
             std::tuple{min_dist[b], g.degree(b),
                        ~static_cast<graph::vertex_id>(b)};
    };
    const std::size_t take = std::min(want, candidates.size());
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(take),
                      candidates.end(), better);
    for (std::size_t i = 0; i < take; ++i) {
      fresh->landmarks.push_back(candidates[i]);
      selected[candidates[i]] = 1;
    }
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  // Concurrent-build resolution: equal fingerprints are equivalent tables
  // (selection is deterministic) — keep the installed one. And a slow build
  // for a *retired* epoch must never clobber tables already valid for the
  // live epoch, or the oracle goes dark until the next epoch advance.
  if (tables_ != nullptr) {
    if (tables_->fingerprint == fp) return;
    if (tables_->fingerprint == current_fp_ && fp != current_fp_) return;
  }
  tables_ = std::move(fresh);
  ++builds_;
  upper_valid_ = current_fp_ == fp;
}

landmark_oracle::tables_ptr landmark_oracle::usable(std::uint64_t fp) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (tables_ == nullptr || tables_->dist.empty()) return nullptr;
  if (tables_->fingerprint == fp) return tables_;  // exact build epoch
  if (current_fp_ != fp) return nullptr;           // some other (pinned) epoch
  return upper_valid_ ? tables_ : nullptr;
}

std::vector<graph::weight_t> landmark_oracle::prune_bounds(
    std::uint64_t fp, std::span<const graph::vertex_id> seeds) const {
  const tables_ptr t = usable(fp);
  if (t == nullptr || seeds.empty()) return {};
  const std::size_t n = t->dist.front().size();
  // min_s d(l, s) per landmark, then ub[v] = min_l (min_sd[l] + d(l, v)).
  std::vector<graph::weight_t> bounds(n, graph::k_inf_distance);
  for (const auto& d : t->dist) {
    graph::weight_t min_sd = graph::k_inf_distance;
    for (const graph::vertex_id s : seeds) {
      if (s < d.size()) min_sd = std::min(min_sd, d[s]);
    }
    if (min_sd == graph::k_inf_distance) continue;
    for (std::size_t v = 0; v < n; ++v) {
      bounds[v] = std::min(bounds[v], sat_add(min_sd, d[v]));
    }
  }
  return bounds;
}

landmark_oracle::stats_data landmark_oracle::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_data s;
  s.builds = builds_;
  s.built = tables_ != nullptr && !tables_->dist.empty();
  s.upper_valid = s.built && upper_valid_;
  s.landmarks = tables_ != nullptr ? tables_->landmarks.size() : 0;
  s.built_fingerprint = tables_ != nullptr ? tables_->fingerprint : 0;
  return s;
}

}  // namespace dsteiner::service::distshare

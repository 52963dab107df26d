// Learned admission cost model: online recursive-least-squares regression
// from per-query analytic features to solve seconds.
//
// The service's admission estimator has to predict how long a solve will
// take *before* running it. The global per-path p50 it shipped with treats
// every cold solve alike, but the drivers of cost are analytic and known at
// admission — Saikia & Karmakar's round-complexity bounds say terminal
// count, a diameter proxy and the round structure decide the work, and the
// serving layer adds its own (warm repair vs cold, fragment pre-seeding,
// engine mode and thread grant, epoch overlay size). This model regresses
// observed solve time onto exactly those features, online:
//
//   * every completed real solve (cold or warm) calls observe(features, y);
//   * admission calls predict_seconds(features) and uses the result once
//     ready() — enough samples seen — falling back to the global-p50 path
//     before that (and keeping it as a comparison baseline forever);
//   * recursive least squares with a forgetting factor, so the model tracks
//     drift (graph mutations, cache temperature, hardware contention)
//     instead of averaging over a stale past.
//
// The RLS update is O(d^2) on a d=11 feature vector behind one mutex —
// nanoseconds against a solve, and admission-rate cheap. Observability is
// first-class: snapshot() exposes the coefficient vector, sample count and
// a residual EMA for /statusz and the Prometheus exposition, so the
// measured-vs-model loop the repo's ROADMAP calls "itself a paper-grade
// result" closes with the weights in plain sight.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

namespace dsteiner::obs {

/// The admission feature vector. Indices are named so the service, the core
/// extractor and /statusz agree on what each coefficient means.
struct query_features {
  static constexpr std::size_t k_dim = 11;

  enum index : std::size_t {
    k_bias = 0,         ///< always 1
    k_seeds = 1,        ///< |S| after canonicalization
    k_log_vertices = 2, ///< log2(1 + n)
    k_log_arcs = 3,     ///< log2(1 + m)
    k_seeds_log_n = 4,  ///< |S| * log2(1 + n) — per-cell growth proxy
    k_seeds_sq = 5,     ///< |S|^2 — distance-graph pair count (phase 2)
    k_overlay = 6,      ///< epoch overlay fraction (overlay arcs / m)
    k_warm = 7,         ///< 1 when the solve is a warm-start repair
    k_fragments = 8,    ///< fraction of seeds with a borrowable fragment
    k_threaded = 9,     ///< 1 when the threaded engine runs the solve
    k_inv_threads = 10, ///< 1 / engine worker count (1 for sequential)
  };

  std::array<double, k_dim> x{};

  [[nodiscard]] static const char* name(std::size_t i) noexcept;
};

struct cost_model_config {
  bool enabled = true;
  /// observe() calls before ready() — below this, admission stays on the
  /// global-p50 baseline. Small by design: RLS is sample-efficient and the
  /// baseline keeps covering until the switch.
  std::size_t min_samples = 16;
  /// RLS forgetting factor (lambda in (0, 1]): 1.0 = ordinary recursive
  /// least squares, lower values discount old solves so the model tracks
  /// epoch edits and load drift. Effective memory ~ 1 / (1 - lambda).
  double forgetting = 0.995;
  /// Initial covariance scale (P = prior_variance * I) — the ridge prior.
  /// Large = weak prior, coefficients move fast on the first samples.
  double prior_variance = 100.0;
};

/// Point-in-time view of the model for /statusz and the metrics exposition.
struct cost_model_snapshot {
  bool enabled = false;
  bool ready = false;
  std::uint64_t samples = 0;
  /// EMA of |y - prediction| over training observations (seconds).
  double abs_error_ema_seconds = 0.0;
  std::array<double, query_features::k_dim> coefficients{};
};

class cost_model {
 public:
  explicit cost_model(cost_model_config cfg = {});

  cost_model(const cost_model&) = delete;
  cost_model& operator=(const cost_model&) = delete;

  /// Predicted solve seconds for `f`, floored at zero. Returns 0.0 when the
  /// model is disabled, has seen nothing, or the prediction is non-finite
  /// (callers treat 0 as "no prediction" and fall back).
  [[nodiscard]] double predict_seconds(const query_features& f) const;

  /// True once the model has enough samples for admission to trust it.
  [[nodiscard]] bool ready() const;

  /// One RLS update from a completed solve. Non-finite or negative targets
  /// are dropped (a crashed timer must not poison the coefficients).
  void observe(const query_features& f, double solve_seconds);

  [[nodiscard]] cost_model_snapshot snapshot() const;

 private:
  static constexpr std::size_t k_d = query_features::k_dim;

  /// P = prior_variance * I.
  void reset_covariance();

  cost_model_config config_;
  mutable std::mutex mu_;
  std::array<double, k_d> w_{};                 ///< coefficient vector
  std::array<std::array<double, k_d>, k_d> p_;  ///< inverse-covariance state
  std::uint64_t samples_ = 0;
  double abs_error_ema_ = 0.0;
};

}  // namespace dsteiner::obs

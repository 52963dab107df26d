#include "obs/cost_model.hpp"

#include <cmath>

namespace dsteiner::obs {

const char* query_features::name(std::size_t i) noexcept {
  switch (i) {
    case k_bias: return "bias";
    case k_seeds: return "seeds";
    case k_log_vertices: return "log2_vertices";
    case k_log_arcs: return "log2_arcs";
    case k_seeds_log_n: return "seeds_x_log2_n";
    case k_seeds_sq: return "seeds_squared";
    case k_overlay: return "overlay_fraction";
    case k_warm: return "warm_start";
    case k_fragments: return "fragment_fraction";
    case k_threaded: return "threaded_engine";
    case k_inv_threads: return "inv_threads";
    default: return "unknown";
  }
}

cost_model::cost_model(cost_model_config cfg) : config_(cfg) {
  if (!(config_.forgetting > 0.0) || config_.forgetting > 1.0) {
    config_.forgetting = 1.0;
  }
  if (!(config_.prior_variance > 0.0)) config_.prior_variance = 100.0;
  reset_covariance();
}

void cost_model::reset_covariance() {
  for (std::size_t i = 0; i < k_d; ++i) {
    p_[i].fill(0.0);
    p_[i][i] = config_.prior_variance;
  }
}

double cost_model::predict_seconds(const query_features& f) const {
  if (!config_.enabled) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_ == 0) return 0.0;
  double y = 0.0;
  for (std::size_t i = 0; i < k_d; ++i) y += w_[i] * f.x[i];
  if (!std::isfinite(y) || y < 0.0) return 0.0;
  return y;
}

bool cost_model::ready() const {
  if (!config_.enabled) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return samples_ >= config_.min_samples;
}

void cost_model::observe(const query_features& f, double solve_seconds) {
  if (!config_.enabled) return;
  if (!std::isfinite(solve_seconds) || solve_seconds < 0.0) return;
  for (double v : f.x) {
    if (!std::isfinite(v)) return;
  }

  std::lock_guard<std::mutex> lock(mu_);

  // Standard RLS with forgetting factor lambda:
  //   px    = P x
  //   k     = px / (lambda + x' px)
  //   e     = y - w' x
  //   w    += k e
  //   P     = (P - k px') / lambda
  //
  // Directions the features never excite (a constant column, an always-zero
  // one) are divided by lambda every step and never shrunk, so P grows
  // without bound until x' P x cancels to <= 0. Then P is restarted from the
  // prior, keeping w, and the update retried once.
  const double lambda = config_.forgetting;
  std::array<double, k_d> px{};
  double denom = 0.0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::size_t i = 0; i < k_d; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < k_d; ++j) acc += p_[i][j] * f.x[j];
      px[i] = acc;
    }
    denom = lambda;
    for (std::size_t i = 0; i < k_d; ++i) denom += f.x[i] * px[i];
    if (denom > 0.0 && std::isfinite(denom)) break;
    reset_covariance();
  }
  if (!(denom > 0.0) || !std::isfinite(denom)) return;

  double predicted = 0.0;
  for (std::size_t i = 0; i < k_d; ++i) predicted += w_[i] * f.x[i];
  const double err = solve_seconds - predicted;

  std::array<double, k_d> gain{};
  for (std::size_t i = 0; i < k_d; ++i) gain[i] = px[i] / denom;
  for (std::size_t i = 0; i < k_d; ++i) w_[i] += gain[i] * err;
  for (std::size_t i = 0; i < k_d; ++i) {
    for (std::size_t j = 0; j < k_d; ++j) {
      p_[i][j] = (p_[i][j] - gain[i] * px[j]) / lambda;
    }
  }

  ++samples_;
  const double abs_err = std::fabs(err);
  // EMA with ~64-sample memory; seeded from the first residual.
  constexpr double k_alpha = 1.0 / 64.0;
  abs_error_ema_ = samples_ == 1
                       ? abs_err
                       : abs_error_ema_ + k_alpha * (abs_err - abs_error_ema_);
}

cost_model_snapshot cost_model::snapshot() const {
  cost_model_snapshot out;
  out.enabled = config_.enabled;
  std::lock_guard<std::mutex> lock(mu_);
  out.samples = samples_;
  out.ready = config_.enabled && samples_ >= config_.min_samples;
  out.abs_error_ema_seconds = abs_error_ema_;
  out.coefficients = w_;
  return out;
}

}  // namespace dsteiner::obs

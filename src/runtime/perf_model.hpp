// Simulated-parallel-time cost model and per-phase metrics.
//
// The paper reports wall-clock time on up to 512 nodes; this repository runs
// every rank in one process, so wall time alone cannot exhibit scaling. The
// engine therefore *also* advances a simulated clock: execution proceeds in
// rounds, each round every rank drains up to `batch` visitors, and the clock
// advances by the maximum per-rank work in that round (critical path) plus a
// latency charge for the round's remote messages. Collectives charge an
// alpha-beta (latency + bandwidth) term. A round bounded by a frontier
// window (see visitor_engine.hpp) also charges the min-fold of the global
// frontier as one such collective of 8 bytes: alpha x log2(p) plus 8 x
// per_byte, one collective_calls and 8 collective_bytes. Strong-scaling
// shape — who is the bottleneck phase, how speedup degrades with rank
// count, load imbalance from skewed degrees — is captured exactly; absolute
// seconds come from the calibration constant `unit_seconds` and are
// simulated, not measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dsteiner::runtime {

/// Work-unit charges for the simulated clock. Defaults loosely calibrated so
/// the bundled mini datasets land in the same "seconds" magnitude the paper
/// reports for the full-size graphs.
struct cost_model {
  double visit_cost = 1.0;          ///< units per processed visitor
  double reject_cost = 0.15;        ///< units per pre_visit rejection (arrival check)
  double send_cost = 0.25;          ///< units per message emission, charged to the sender
  double remote_msg_cost = 0.5;     ///< units per remote message (injection+delivery)
  double collective_alpha = 200.0;  ///< units per collective call, x log2(p)
  double collective_per_byte = 0.002;  ///< units per byte moved by a collective
  /// Units per sequential-step work item (e.g. one MST heap operation). A
  /// heap op is far cheaper than a full visitor dispatch (deserialization +
  /// callback + scatter), hence the ~20x discount against visit_cost.
  double sequential_unit = 0.05;
  double unit_seconds = 1.0e-4;     ///< wall seconds represented by one unit
};

/// Metrics accumulated for one computation phase (one engine run or one
/// collective step). Mirrors the stacked-bar decomposition of Figs. 3-6.
struct phase_metrics {
  double wall_seconds = 0.0;
  double sim_units = 0.0;  ///< simulated parallel time, cost_model units

  std::uint64_t rounds = 0;
  std::uint64_t visitors_processed = 0;  ///< visit() executions
  std::uint64_t visitors_skipped = 0;    ///< superseded visitors dropped at dequeue
  std::uint64_t previsit_rejections = 0; ///< visitors dropped on arrival
  std::uint64_t messages_local = 0;      ///< visitor sends within a rank
  std::uint64_t messages_remote = 0;     ///< visitor sends crossing ranks
  std::uint64_t collective_calls = 0;
  std::uint64_t collective_bytes = 0;
  std::uint64_t queue_peak_items = 0;    ///< max simultaneously queued visitors
  std::uint64_t queue_peak_bytes = 0;

  [[nodiscard]] std::uint64_t messages_total() const noexcept {
    return messages_local + messages_remote;
  }

  [[nodiscard]] double sim_seconds(const cost_model& costs) const noexcept {
    return sim_units * costs.unit_seconds;
  }

  /// Accumulates another phase into this one (for end-to-end totals).
  void merge(const phase_metrics& other) noexcept;
};

/// Charges one collective moving `bytes` per rank over `ranks` ranks to
/// `metrics`: collective_alpha x log2(ranks) (x 1 on one rank) plus
/// collective_per_byte x bytes, and one call.
void charge_collective(phase_metrics& metrics, const cost_model& costs,
                       int ranks, std::uint64_t bytes) noexcept;

/// Ordered per-phase breakdown keyed by phase name; preserves the paper's
/// phase order (Voronoi Cell, Local Min Dist. Edge, Global Min Dist. Edge,
/// MST, Global Edge Pruning, Steiner Tree Edge).
class phase_breakdown {
 public:
  phase_metrics& phase(const std::string& name);
  [[nodiscard]] const phase_metrics* find(const std::string& name) const;

  [[nodiscard]] phase_metrics total() const;
  [[nodiscard]] const std::map<std::string, phase_metrics>& by_name() const noexcept {
    return phases_;
  }

 private:
  std::map<std::string, phase_metrics> phases_;
};

/// Canonical phase names, matching the paper's chart legends.
namespace phase_names {
inline constexpr const char* voronoi = "Voronoi Cell";
inline constexpr const char* local_min_edge = "Local Min Dist. Edge";
inline constexpr const char* global_min_edge = "Global Min Dist. Edge";
inline constexpr const char* mst = "MST";
inline constexpr const char* pruning = "Global Edge Pruning";
inline constexpr const char* tree_edge = "Steiner Tree Edge";
}  // namespace phase_names

}  // namespace dsteiner::runtime

// Per-superstep engine telemetry sink — the runtime half of src/obs/.
//
// The visitor engines (runtime/visitor_engine.hpp cooperative rounds,
// runtime/parallel/thread_engine.hpp real supersteps) record one
// `superstep_sample` per rank per superstep into a probe lane. Lanes are
// single-writer by construction: the threaded engine gives worker w lane w
// (a worker is the only thread that touches its ranks), the cooperative
// engine writes everything into lane 0 from the one thread it runs on.
// Recording is therefore lock-free — an append into a pre-owned vector plus
// one steady-clock read — and bounded: a lane that reaches its capacity
// drops further samples (counted) instead of growing without limit, so a
// million-superstep solve cannot turn its trace into a memory hog.
//
// The probe never feeds back into execution: samples are observations of
// decisions already taken, so tracing-on and tracing-off solves stay
// bit-identical (under test in tests/test_obs.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

namespace dsteiner::obs {

/// One rank's (or one worker's, rank == -1) activity in one superstep.
struct superstep_sample {
  const char* phase = "";     ///< solver phase name (static string)
  std::uint32_t superstep = 0;
  std::int32_t rank = -1;     ///< -1 = worker/engine aggregate row
  std::uint32_t visitors = 0;     ///< visit() dispatches this superstep
  std::uint32_t sent = 0;         ///< messages emitted this superstep
  std::uint32_t drained = 0;      ///< channel items admitted in the deliver phase
  std::uint32_t backlog = 0;      ///< mailbox depth after the compute batch
  float work_units = 0.0F;        ///< simulated work (cost-model units)
  float compute_seconds = 0.0F;   ///< wall time computing (aggregate rows)
  float barrier_wait_seconds = 0.0F;  ///< wall time stalled at barriers
  double end_offset_seconds = 0.0;    ///< stamp vs the trace origin (record())
};

class engine_probe {
 public:
  /// `origin` anchors sample timestamps (the owning trace's epoch); `lanes`
  /// is the maximum concurrent writer count (engine workers); `capacity`
  /// bounds samples per lane.
  engine_probe(std::chrono::steady_clock::time_point origin, std::size_t lanes,
               std::size_t capacity)
      : origin_(origin), capacity_(capacity), lanes_(lanes == 0 ? 1 : lanes) {
    for (auto& l : lanes_) l.samples.reserve(std::min<std::size_t>(capacity, 64));
  }

  /// Current solver phase, stamped onto subsequent samples. Called by the
  /// solver thread between engine runs; the worker pool's run() handoff
  /// sequences it before any worker records (no concurrent access).
  void set_phase(const char* name) noexcept { phase_ = name; }

  /// Appends a sample to `lane`. Safe to call concurrently from distinct
  /// lanes; each lane must have exactly one writer. Out-of-range lanes and
  /// full lanes drop (counted per lane).
  void record(std::size_t lane, superstep_sample s) noexcept {
    if (lane >= lanes_.size()) return;
    auto& l = lanes_[lane];
    if (l.samples.size() >= capacity_) {
      ++l.dropped;
      return;
    }
    s.phase = phase_;
    s.end_offset_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      origin_)
            .count();
    l.samples.push_back(s);
  }

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }

  /// Read side — only valid once every writer is done (the trace is final).
  [[nodiscard]] std::span<const superstep_sample> lane_samples(
      std::size_t lane) const noexcept {
    if (lane >= lanes_.size()) return {};
    return lanes_[lane].samples;
  }

  [[nodiscard]] std::size_t total_samples() const noexcept {
    std::size_t n = 0;
    for (const auto& l : lanes_) n += l.samples.size();
    return n;
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& l : lanes_) n += l.dropped;
    return n;
  }

 private:
  /// Cache-line padded so two workers recording into neighbouring lanes do
  /// not false-share.
  struct alignas(64) lane {
    std::vector<superstep_sample> samples;
    std::uint64_t dropped = 0;
  };

  std::chrono::steady_clock::time_point origin_;
  std::size_t capacity_;
  const char* phase_ = "";
  std::vector<lane> lanes_;
};

}  // namespace dsteiner::obs

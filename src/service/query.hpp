// Query and result types for the concurrent Steiner query service.
//
// A query is a seed set plus optional solver-configuration overrides; the
// service executes it cold, warm (repairing a recent solve with a similar
// seed set) or straight from the result cache, and reports which path it
// took along with admission-to-completion latency splits.
//
// `query` is the QoS-free core of a `request` (request.hpp): callers wrap it
// in a `request`, submit that, and hold the `query_handle`
// (query_handle.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/warm_start.hpp"
#include "graph/types.hpp"
#include "obs/trace.hpp"

namespace dsteiner::service {

struct query {
  std::vector<graph::vertex_id> seeds;
  /// Overrides the service-wide default solver configuration when set.
  std::optional<core::solver_config> config;
  /// Per-query opt-outs (e.g. to force fresh solves in benchmarks).
  bool use_cache = true;
  bool allow_warm_start = true;
  /// Pins the query to a specific graph epoch (it must still be live);
  /// nullopt targets the current epoch at execution time. Old-epoch cached
  /// results remain servable through pins until their epoch retires.
  std::optional<std::uint64_t> epoch;
  /// Unpinned queries only: accept a cached result from an older live epoch
  /// (within the service's max_stale_epochs window) when the current epoch
  /// has no entry yet — stale-while-warming. The service kicks off a
  /// best-effort background refresh for the current epoch on every stale
  /// hit.
  bool allow_stale = true;
};

/// How the service satisfied a query. The output tree is identical across all
/// paths (the solver's determinism guarantee) *except* stale_hit, which
/// deliberately returns the previous epoch's tree; only the work differs.
/// `warm_start` repairs an earlier solve of the same seed set, across an edge
/// delta when the donor ran on an older epoch; a seed-set edit is a cold
/// solve pre-seeded from the fragment store. `coalesced` = an identical query was already in flight on another
/// worker and this one waited for its result instead of duplicating the solve
/// (single-flight).
enum class solve_kind : std::uint8_t {
  cold,
  warm_start,
  cache_hit,
  coalesced,
  stale_hit,
};

[[nodiscard]] const char* to_string(solve_kind kind) noexcept;

struct query_result {
  core::steiner_result result;
  solve_kind kind = solve_kind::cold;
  std::uint64_t query_id = 0;
  /// Graph epoch the served tree belongs to (the stale source epoch for
  /// stale_hit results).
  std::uint64_t epoch = 0;

  double queue_wait_seconds = 0.0;  ///< admission queue -> worker pickup
  double solve_seconds = 0.0;       ///< inside the solver (0 for cache hits)
  double total_seconds = 0.0;       ///< admission -> completion

  /// Repair-size observability; populated when kind == warm_start.
  core::warm_start_stats warm;
  /// Shared-substrate observability; populated when kind == cold and the
  /// solve was pre-seeded from the fragment store and/or pruned by the
  /// landmark oracle (service/distshare/). A fragment-assisted solve still
  /// reports kind == cold: its tree is bit-identical, only the work shrank.
  core::assist_stats assist;

  /// Query-scoped trace (spans, engine samples, summary) when the service
  /// ran with tracing enabled; null otherwise. Tracing is pure observation —
  /// the tree is bit-identical with or without it.
  std::shared_ptr<const obs::query_trace> trace;
};

}  // namespace dsteiner::service

// Concurrent Steiner query service — the §I workflow at serving scale.
//
// One service owns one *epoched* graph (graph/epoch_graph.hpp) and executes
// many Steiner queries against it concurrently:
//
//   submit(request) -> query_handle               (QoS-aware admission)
//   advance_epoch(edge_delta) -> new epoch id     (graph mutation)
//
// A request carries seeds plus quality-of-service — priority class, absolute
// deadline, cancellation token (request.hpp) — and its handle exposes
// cancel()/status()/poll()/get() (query_handle.hpp). Admission is cost-aware:
// the per-path latency histograms the service already keeps, combined with
// the executor backlog, predict each request's completion time, and a
// request that predictably cannot meet its deadline is rejected up front
// (deadline_unmeetable) instead of occupying a queue slot. Admitted requests
// wait in a priority queue that expires entries past their deadline and
// sheds the lowest class first under saturation; cancelled or expired solves
// stop mid-flight at cooperative solver checkpoints with partial work
// discarded (donors and cache untouched).
//
// Each query takes the cheapest correct path:
//   1. result cache   — exact (epoch, seeds, config) repeat: no solver work;
//   2. stale hit      — the current epoch has no entry yet but an older live
//                       epoch does: serve it (marked stale) and kick off a
//                       background refresh — old-epoch results keep serving
//                       while new-epoch solves warm up;
//   3. warm start     — a recent solve of the same seed set, on an older
//                       epoch a few edge edits away (or uncached on this
//                       one): repair its Voronoi labelling and distance
//                       graph instead of recomputing (warm_start.hpp);
//   4. cold solve     — full Alg. 3 pipeline, pre-seeded from the shared
//                       SSSP fragment store and pruned by the landmark
//                       oracle when available (service/distshare/ — same
//                       tree, less phase-1 work), capturing artifacts and
//                       publishing per-seed fragments so later queries can
//                       take paths 1-3 or borrow its cells. A seed-set edit
//                       lands here and borrows the cells of the seeds it
//                       kept.
//
// Cold, warm and cache paths return bit-identical trees for their epoch (the
// solver's determinism guarantee), so concurrency, caching and warm starts
// are pure latency optimisations, observable through per-query latency
// splits and service-wide counters. Epoch retirement bounds the state old
// epochs pin: their cache entries, donors and materialized CSRs go when a
// configurable number of newer epochs exist.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/warm_start.hpp"
#include "graph/csr_graph.hpp"
#include "graph/epoch_graph.hpp"
#include "obs/cost_model.hpp"
#include "obs/slo.hpp"
#include "obs/slow_query_log.hpp"
#include "obs/trace.hpp"
#include "service/distshare/landmark_oracle.hpp"
#include "service/distshare/sssp_fragment_store.hpp"
#include "service/executor.hpp"
#include "service/latency_histogram.hpp"
#include "service/query.hpp"
#include "service/query_handle.hpp"
#include "service/request.hpp"
#include "service/result_cache.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::runtime::net {
struct net_solve_report;  // runtime/net/dist_solver.hpp
struct cluster_trace;     // runtime/net/cluster_telemetry.hpp
}  // namespace dsteiner::runtime::net

namespace dsteiner::service {

struct service_config {
  /// Default solver configuration for queries without an override.
  core::solver_config solver{};
  executor_config exec{};
  result_cache::config cache{};
  /// Epoch chain management: compaction threshold and the live-epoch window
  /// (retirement happens when advance_epoch pushes an epoch out of it).
  graph::epoch_store::config epochs{};
  bool enable_cache = true;
  /// Warm start repairs an earlier solve of the same seed set, across the
  /// composed edge delta when it ran on an older epoch.
  bool enable_warm_start = true;
  /// Cross-epoch warm-start cutoff: largest composed edge delta worth
  /// repairing a previous-epoch donor over instead of solving cold.
  std::size_t warm_edge_edit_limit = 64;
  /// Finished solves kept as warm-start donor candidates.
  std::size_t donor_history = 8;
  /// Stale serving: on a current-epoch cache miss, serve a cached result up
  /// to this many epochs old (and refresh in the background). 0 disables —
  /// the default, because a stale tree is *not* the current graph's tree;
  /// callers opt in per service.
  std::size_t max_stale_epochs = 0;
  /// Shared distance substrate (service/distshare/). Fragment reuse
  /// pre-seeds cold solves from settled per-seed cells published by earlier
  /// solves on the same epoch — pure in-path work with a bit-identical
  /// output, so it defaults on. Queries opt out with allow_warm_start =
  /// false (the "reuse nothing" switch).
  bool enable_fragment_reuse = true;
  distshare::fragment_store_config fragment_store{};
  /// Landmark oracle: its upper bounds prune phase-1 admission of cold
  /// solves (same tree, fewer relaxations). Costs K SSSP trees per epoch
  /// (built lazily in the background on first demand; see
  /// warm_distance_oracle() for a blocking build) — opt-in because small or
  /// short-lived deployments never recoup the build.
  bool enable_oracle = false;
  distshare::landmark_oracle::config oracle{};
  /// Total cores split between inter-query parallelism (the executor's
  /// workers) and intra-query parallelism (the threaded engine inside one
  /// cold solve). 0 = hardware concurrency. When the solver runs in
  /// execution_mode::parallel_threads with num_threads == 0, each solve is
  /// granted max(1, core_budget / exec.num_threads) engine workers.
  std::size_t core_budget = 0;
  /// Query-scoped tracing (obs/trace.hpp): span capture, per-superstep
  /// engine samples, the slow-query log. Pure observation — traced and
  /// untraced solves produce bit-identical trees — so it defaults on;
  /// set trace.enabled = false to shed even the capture cost. Head sampling
  /// (trace.sample_rate) keeps a representative trickle of traces flowing
  /// into the flight recorder even with enabled = false.
  obs::trace_config trace{};
  /// Learned admission cost model (obs/cost_model.hpp): an online RLS
  /// regression from per-query features (|S|, graph scale, overlay
  /// fraction, warm/fragment state, engine grant) to solve seconds,
  /// trained from every completed solve. Admission switches from the global
  /// per-path p50 baseline to the model once it has cost_model.min_samples
  /// observations; both predictions are exported side by side either way.
  obs::cost_model_config cost_model{};
  /// Per-priority-class latency objectives and error-budget burn-rate
  /// tracking (obs/slo.hpp). Scored on every successful completion;
  /// violating queries are force-retained in the slow-query log.
  obs::slo_config slo{};
  /// Distributed runtime (runtime/net/): world >= 2 routes every cold solve
  /// through `net::solve_loopback` — one comm_backend rank per in-process
  /// thread, exchanging the same typed frames the TCP backend puts on real
  /// sockets. Output is bit-identical to the single-process solver (the
  /// solver's fixed point is a unique lexicographic minimum), so this is the
  /// serving-path twin of the `dsteiner-rank` multi-process launcher: same
  /// wire codecs, same termination votes, same traffic counters, minus the
  /// kernel. Warm starts and fragment capture are skipped in this mode
  /// (artifacts live sharded across ranks); 1 = classic in-process solver.
  struct distributed_config {
    int world = 1;
  };
  distributed_config distributed{};
};

struct service_stats {
  std::uint64_t queries = 0;
  std::uint64_t cold_solves = 0;
  std::uint64_t warm_solves = 0;
  std::uint64_t edge_warm_solves = 0;  ///< warm solves that crossed epochs
  std::uint64_t warm_fallbacks = 0;  ///< warm attempts that fell back to cold
  std::uint64_t cache_hits = 0;
  std::uint64_t stale_hits = 0;  ///< served from an older live epoch
  std::uint64_t coalesced = 0;  ///< waited on an identical in-flight query
  std::uint64_t epoch_advances = 0;

  // QoS lifecycle counters (request/handle API).
  std::uint64_t cancelled = 0;  ///< stopped by cancel() or a request token
  std::uint64_t deadline_rejected = 0;  ///< admission: predictably unmeetable
  std::uint64_t deadline_expired = 0;   ///< deadline hit while queued/solving
  std::uint64_t stale_refreshes = 0;    ///< background refreshes enqueued
  std::uint64_t stale_refreshes_deduped = 0;  ///< suppressed: already in flight
  std::uint64_t leader_abandoned = 0;  ///< single-flight solves stopped after
                                       ///< every rider walked away
  std::uint64_t slow_queries = 0;  ///< slow-log captures (threshold or SLO)
  std::uint64_t sampled_traces = 0;  ///< head-sample hits that captured traces
  std::uint64_t slo_violations = 0;  ///< completions past their class objective
  std::uint64_t model_admissions = 0;  ///< admissions priced by the learned model

  // Distributed runtime traffic (runtime/net/), populated when
  // config.distributed.world >= 2. Bytes are whole-mesh sums over all ranks.
  std::uint64_t distributed_solves = 0;  ///< cold solves run on the net mesh
  std::uint64_t net_bytes_sent = 0;      ///< measured wire bytes (w/ headers)
  std::uint64_t net_bytes_modelled = 0;  ///< perf-model payload prediction
  std::uint64_t net_frames_sent = 0;     ///< frames put on the mesh
  std::uint64_t net_supersteps = 0;      ///< BSP supersteps across solves
  std::uint64_t net_ghost_labels = 0;    ///< boundary labels synchronized
  // Cluster telemetry plane (per-rank superstep frames, merged on rank 0).
  std::uint64_t cluster_telemetry_samples = 0;  ///< rank×superstep samples
  std::uint64_t cluster_supersteps = 0;  ///< attributed superstep groups
  std::uint64_t cluster_straggler_supersteps = 0;  ///< compute skew >= 2x

  // Shared distance substrate (distshare/).
  std::uint64_t fragment_assisted = 0;  ///< cold solves pre-seeded from store
  std::uint64_t fragment_hits = 0;      ///< fragments borrowed into solves
  std::uint64_t preseeded_vertices = 0;  ///< labels adopted before relaxation
  std::uint64_t oracle_pruned_visitors = 0;  ///< admission drops by UB bound
  std::uint64_t oracle_builds = 0;           ///< landmark table (re)builds
  /// Requests admitted/shed per priority class (shed = queue-full rejections,
  /// displacements, queued-deadline expiries and unmeetable rejections).
  std::array<std::uint64_t, k_priority_classes> admitted_by_priority{};
  std::array<std::uint64_t, k_priority_classes> shed_by_priority{};

  result_cache::stats cache;
  executor_stats exec;
  distshare::fragment_store_stats fragments;
};

/// Point-in-time metrics export: the counters plus per-stage latency
/// histograms (log2 buckets; see latency_histogram.hpp). Built for scraping
/// into a dashboard — the histograms expose mean and quantile estimates
/// without the service retaining per-query samples.
struct service_snapshot {
  service_stats stats;
  latency_histogram::snapshot_data queue_wait;       ///< all queries
  latency_histogram::snapshot_data cold_solve;       ///< solver time, cold path
  latency_histogram::snapshot_data warm_solve;       ///< solver time, warm path
  latency_histogram::snapshot_data cache_hit_total;  ///< end-to-end, cache hits
  latency_histogram::snapshot_data total;            ///< end-to-end, all paths
  // Measured-vs-model: what the perf model predicted for the solves that
  // actually ran, and how far reality landed from two predictions.
  latency_histogram::snapshot_data modelled_solve;  ///< cost-model solve time
  latency_histogram::snapshot_data model_abs_error;  ///< |wall - modelled|
  latency_histogram::snapshot_data estimate_error;  ///< |total - admission est.|
  /// Paired learned-model-vs-baseline comparison: for every query whose
  /// admission was priced by the learned model, the absolute error of both
  /// its prediction and what the global-p50 baseline would have said.
  latency_histogram::snapshot_data estimate_error_model;
  latency_histogram::snapshot_data estimate_error_baseline;
  /// Distributed traffic, paired modelled-vs-measured: one sample per
  /// superstep, in megabytes (bytes x 1e-6 — the histogram's log2 buckets
  /// were sized for seconds, and MB land in the same useful range). Measured
  /// counts real wire bytes including headers/markers/votes, so measured >=
  /// modelled holds per sample; the gap is framing overhead the perf model
  /// deliberately excludes.
  latency_histogram::snapshot_data comm_bytes_modelled;
  latency_histogram::snapshot_data comm_bytes_measured;
  /// Cluster telemetry: per rank×superstep sample, wall seconds of the whole
  /// sample (compute + send-flush + recv-wait) and of its
  /// communication share — the distribution /clusterz's straggler report
  /// summarizes per superstep.
  latency_histogram::snapshot_data cluster_superstep_seconds;
  latency_histogram::snapshot_data cluster_comm_wait_seconds;
  obs::cost_model_snapshot cost_model;  ///< RLS coefficients, samples, residual
  obs::slo_snapshot slo;                ///< per-class burn rates and windows
};

class steiner_service {
 public:
  explicit steiner_service(graph::csr_graph graph, service_config config = {});

  steiner_service(const steiner_service&) = delete;
  steiner_service& operator=(const steiner_service&) = delete;

  /// QoS-aware admission — the primary serving surface. Never blocks: a
  /// request that cannot be admitted (queue saturated with nothing below its
  /// priority to shed, or a predictably unmeetable deadline) comes back as a
  /// handle already in request_status::rejected. An already-cancelled token
  /// short-circuits to ::cancelled. Invalid seeds surface when the handle is
  /// resolved (status failed, get() rethrows).
  [[nodiscard]] query_handle submit(request r);

  /// Synchronous convenience for the request surface: submit + get(). Do not
  /// call from a worker thread (it would wait on its own pool).
  [[nodiscard]] query_result solve(request r);

  /// Derives a new graph epoch from a batch of edge edits — the §I
  /// "adjusting edge distance functions / removing classes of edges"
  /// interactions — *without* rebuilding the service. Old-epoch cache
  /// entries keep serving pinned (and optionally stale) queries until their
  /// epoch falls out of the live window, at which point its cache entries,
  /// donors and materialized CSR are dropped. New-epoch queries warm-start
  /// from previous-epoch donors through the edge-delta repair. Returns the
  /// new epoch id. Thread-safe; in-flight queries finish on the epoch they
  /// resolved at admission.
  std::uint64_t advance_epoch(const graph::edge_delta& delta);

  /// The current epoch's materialized CSR. The reference stays valid until
  /// the epoch retires (live-window advances), so don't hold it across
  /// advance_epoch calls — re-fetch instead.
  [[nodiscard]] const graph::csr_graph& graph() const {
    return *epochs_.current()->csr();
  }
  /// Current epoch's chained content fingerprint (cache-key continuity: for
  /// an unedited graph this equals the structural CSR fingerprint).
  [[nodiscard]] std::uint64_t graph_fingerprint() const {
    return epochs_.current()->fingerprint();
  }
  [[nodiscard]] std::uint64_t current_epoch() const {
    return epochs_.current()->epoch_id();
  }
  /// The epoch chain (live window, delta composition) — read-only.
  [[nodiscard]] const graph::epoch_store& epochs() const noexcept {
    return epochs_;
  }
  [[nodiscard]] const service_config& config() const noexcept { return config_; }
  [[nodiscard]] service_stats stats() const;

  /// Blocking landmark-oracle build for the current epoch (no-op when the
  /// oracle is disabled or already fresh). Production serving relies on the
  /// lazy background build instead; this is for tests, benches and warm-up
  /// scripts that need deterministic oracle availability.
  void warm_distance_oracle();
  /// Oracle state (bound validity, landmark count) — read-only.
  [[nodiscard]] distshare::landmark_oracle::stats_data oracle_stats() const {
    return oracle_.stats();
  }
  /// The shared fragment store — read-only access for tests/observability.
  [[nodiscard]] const distshare::sssp_fragment_store& fragments()
      const noexcept {
    return fragments_;
  }

  /// The slow-query log: the last few traces whose end-to-end latency
  /// crossed config().trace.slow_query_threshold_seconds, plus SLO-violating
  /// queries (force-retained regardless of the threshold). Read-only.
  [[nodiscard]] const obs::slow_query_log& slow_log() const noexcept {
    return slow_log_;
  }

  /// The flight recorder: head-sampled traces (one in ~1/trace.sample_rate
  /// queries) that were NOT slow or SLO-violating — the representative
  /// traffic /tracez shows next to the outliers. Read-only.
  [[nodiscard]] const obs::slow_query_log& flight_recorder() const noexcept {
    return flight_recorder_;
  }

  /// The learned admission cost model's coefficients/sample state.
  [[nodiscard]] obs::cost_model_snapshot cost_model_snapshot() const {
    return cost_model_.snapshot();
  }

  /// Per-priority-class SLO burn rates and windowed counts.
  [[nodiscard]] obs::slo_snapshot slo_snapshot() const {
    return slo_.snapshot();
  }

  /// Counters + per-stage latency histograms; safe to call under load.
  [[nodiscard]] service_snapshot snapshot() const;

  /// The most recent distributed solve's merged cluster telemetry (rank 0's
  /// aggregation of every rank's per-superstep frames), or null when no
  /// distributed solve has completed with telemetry on. Shared read-only
  /// snapshot — /clusterz renders it without holding service locks.
  [[nodiscard]] std::shared_ptr<const runtime::net::cluster_trace>
  cluster_trace_snapshot() const;

  /// Engine workers the core-budget split grants a parallel_threads solve.
  /// Computed regardless of the default solver's mode, since per-query
  /// config overrides may opt into the threaded engine on their own.
  [[nodiscard]] std::size_t intra_query_threads() const noexcept {
    return intra_query_threads_;
  }

  /// Hash of every output- or metrics-affecting solver_config field; part of
  /// the cache key.
  [[nodiscard]] static std::uint64_t config_hash(
      const core::solver_config& config) noexcept;

 private:
  using donor_ptr = std::shared_ptr<const core::solve_artifacts>;

  /// A warm-start donor: the artifacts plus the epoch they were solved on.
  struct donor_record {
    donor_ptr artifacts;
    std::uint64_t epoch_id = 0;
    std::uint64_t graph_fingerprint = 0;  ///< structural CSR fp of its epoch
  };

  /// A selected donor plus the composed edge delta needed to repair across
  /// epochs (empty for a same-epoch donor).
  struct donor_match {
    donor_ptr artifacts;
    std::uint64_t graph_fingerprint = 0;
    std::vector<graph::applied_edge_edit> edits;
  };

  /// Allocates the shared lifecycle state for a request (id, priority,
  /// budget wiring) and takes the promise's shared future, before
  /// dispatch() posts the task.
  [[nodiscard]] std::shared_ptr<detail::request_state> make_request_state(
      const request& r);
  /// Admission: pre-cancel/pre-expiry short-circuit, cost-model deadline
  /// check, then executor try_post. Resolves the state itself on every
  /// non-admitted path.
  void dispatch(request r, std::shared_ptr<detail::request_state> st);
  /// The worker-side task: lifecycle transitions around execute().
  [[nodiscard]] executor::task make_task(
      std::shared_ptr<detail::request_state> st, query q);
  /// Terminal bookkeeping for a stopped (cancelled/expired) request.
  void note_stopped(detail::request_state& st, util::cancel_reason why);
  /// Predicted completion seconds (queue drain + solve estimate) for
  /// admission: the learned cost model's prediction once it is ready, the
  /// global per-path p50 baseline before that — both returned side by side.
  /// used == 0.0 means no history: always admit.
  [[nodiscard]] admission_estimates estimate_completion_seconds(
      const request& r);
  /// The cost model's feature vector for a prospective or completed solve on
  /// `epoch`. `warm` selects the warm-repair flag and suppresses the
  /// fragment-presence probe (warm solves don't borrow fragments).
  [[nodiscard]] obs::query_features build_query_features(
      const graph::epoch_graph& epoch,
      std::span<const graph::vertex_id> canonical,
      const core::solver_config& solver_config, bool warm) const;
  /// Per-request context execute() needs beyond the query itself. The
  /// defaults describe a background refresh: no budget, no admission
  /// estimates, no request id, background priority.
  struct exec_context {
    const util::run_budget* budget = nullptr;
    admission_estimates estimates{};
    std::uint64_t request_id = 0;
    priority_class priority = priority_class::background;
  };
  [[nodiscard]] query_result execute(query q, double queue_wait,
                                     util::timer admitted, exec_context ctx);
  /// Background-refresh convenience: execute() with a default exec_context.
  [[nodiscard]] query_result execute(query q, double queue_wait,
                                     util::timer admitted) {
    return execute(std::move(q), queue_wait, admitted, exec_context{});
  }
  /// The donor of this exact seed set with the smallest composed edge delta
  /// to `epoch` (at most warm_edge_edit_limit edits), the most recent on a
  /// tie; nullopt when no donor of the set qualifies.
  [[nodiscard]] std::optional<donor_match> find_donor(
      std::span<const graph::vertex_id> canonical_seeds,
      const graph::epoch_graph& epoch);
  void remember_donor(donor_ptr donor, std::uint64_t epoch_id);
  /// Best-effort current-epoch refresh after a stale hit (fire-and-forget;
  /// dropped when the admission queue is full). Deduplicated: a refresh
  /// token per (epoch, seeds, config) key guarantees at most one in-flight
  /// refresh per key no matter how many stale hits a burst produces.
  void refresh_in_background(std::vector<graph::vertex_id> seeds,
                             std::optional<core::solver_config> config);
  /// Lazy oracle build: posts one background build task per epoch
  /// fingerprint (deduped by oracle_kicked_fp_); queries keep running
  /// unpruned until the tables land.
  void kick_oracle_build(const graph::epoch_graph::ptr& epoch);
  /// Applies the core-budget split to a per-query solver config: a
  /// parallel_threads solve with no explicit thread count gets this
  /// service's intra-query worker grant.
  void grant_worker_budget(core::solver_config& config) const noexcept;
  /// Folds one distributed solve's per-rank telemetry into the service's net
  /// counters and the paired modelled/measured per-superstep histograms.
  void record_net_reports(
      const std::vector<runtime::net::net_solve_report>& reports,
      obs::query_trace* trace);

  service_config config_;
  graph::epoch_store epochs_;
  result_cache cache_;
  std::size_t intra_query_threads_ = 1;

  /// Shared distance substrate: the per-epoch fragment store and the
  /// landmark oracle (both internally synchronized).
  distshare::sssp_fragment_store fragments_;
  distshare::landmark_oracle oracle_;
  /// Epoch fingerprint a background oracle build was last kicked for —
  /// dedupes the lazy build trigger without blocking queries.
  std::atomic<std::uint64_t> oracle_kicked_fp_{0};

  /// Per-stage latency histograms behind snapshot().
  latency_histogram queue_wait_hist_;
  latency_histogram cold_solve_hist_;
  latency_histogram warm_solve_hist_;
  latency_histogram cache_hit_total_hist_;
  latency_histogram total_hist_;
  /// Measured-vs-model histograms: the cost model's predicted solve time for
  /// each executed solve, and the absolute wall-vs-model / total-vs-estimate
  /// residuals. Recorded regardless of tracing (they cost two atomics).
  latency_histogram modelled_solve_hist_;
  latency_histogram model_abs_error_hist_;
  latency_histogram estimate_error_hist_;
  /// Paired comparison, recorded only for model-priced admissions: the
  /// learned model's absolute error and the baseline's on the same queries.
  latency_histogram estimate_error_model_hist_;
  latency_histogram estimate_error_baseline_hist_;
  /// Distributed per-superstep traffic in MB (see service_snapshot).
  latency_histogram comm_bytes_modelled_hist_;
  latency_histogram comm_bytes_measured_hist_;
  /// Cluster telemetry: per rank×superstep total and comm-wait seconds.
  latency_histogram cluster_superstep_seconds_hist_;
  latency_histogram cluster_comm_wait_seconds_hist_;

  /// Learned admission cost model: trained from every completed real solve,
  /// consulted by estimate_completion_seconds (internally synchronized).
  obs::cost_model cost_model_;
  /// Per-priority-class SLO scoring (internally synchronized).
  obs::slo_tracker slo_;

  /// Slow-query log: completed traces past the configured threshold, plus
  /// SLO violators (force-retained).
  obs::slow_query_log slow_log_;
  /// Flight recorder: head-sampled traces of ordinary (not slow, not
  /// violating) queries — the representative-traffic ring behind /tracez.
  obs::slow_query_log flight_recorder_;
  /// Deterministic head-sampling ticker: query k is sampled when
  /// k % round(1 / trace.sample_rate) == 0.
  std::atomic<std::uint64_t> sample_ticker_{0};
  std::atomic<std::uint64_t> slow_queries_{0};
  std::atomic<std::uint64_t> sampled_traces_{0};
  std::atomic<std::uint64_t> slo_violations_{0};
  std::atomic<std::uint64_t> model_admissions_{0};

  /// Warm-start donor registry: the last few solves' artifacts, epoch-keyed.
  /// Bounded by donor_history — artifacts are O(|V|) each, so they
  /// deliberately do not ride along in result-cache entries. Donors from
  /// retired epochs are pruned on advance_epoch.
  std::mutex donors_mutex_;
  std::deque<donor_record> donors_;  ///< front = most recent

  /// Interest tracking for one single-flight solve: the leader's requester
  /// (when it has one) and every coalesced rider hold a share; the last one
  /// to leave fires the group-abandon source, which the leader's solve
  /// budget observes at its next checkpoint. A requester-less leader (a
  /// background stale-refresh) starts at zero shares, so it runs to
  /// completion when nobody ever coalesced — the result still feeds the
  /// cache — but dies as soon as riders joined and all walked away.
  struct inflight_interest {
    std::atomic<std::int64_t> shares{0};
    util::cancel_source abandoned;

    void join() noexcept { shares.fetch_add(1, std::memory_order_acq_rel); }
    void leave() noexcept {
      if (shares.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        (void)abandoned.request_cancel();
      }
    }
  };

  struct inflight_entry {
    std::shared_future<result_cache::entry_ptr> result;
    std::shared_ptr<inflight_interest> interest;
  };

  /// Single-flight registry: cacheable queries that missed the cache register
  /// here; identical queries arriving while one is being solved wait for its
  /// entry instead of duplicating the work (thundering-herd protection).
  std::mutex inflight_mutex_;
  std::unordered_map<cache_key, inflight_entry, cache_key_hash> inflight_;

  /// Stale-refresh dedup: keys with a background refresh in flight. A stale
  /// hit registers its key here before enqueueing; the refresh task (or a
  /// failed enqueue) erases it.
  std::mutex refresh_mutex_;
  std::unordered_set<cache_key, cache_key_hash> refreshing_;

  std::atomic<std::uint64_t> query_counter_{0};  ///< also the queries total
  std::atomic<std::uint64_t> request_counter_{0};  ///< handle ids (submissions)
  std::atomic<std::uint64_t> cold_solves_{0};
  std::atomic<std::uint64_t> warm_solves_{0};
  std::atomic<std::uint64_t> edge_warm_solves_{0};
  std::atomic<std::uint64_t> warm_fallbacks_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> stale_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> epoch_advances_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_rejected_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> stale_refreshes_{0};
  std::atomic<std::uint64_t> stale_refreshes_deduped_{0};
  std::atomic<std::uint64_t> leader_abandoned_{0};
  std::atomic<std::uint64_t> fragment_assisted_{0};
  std::atomic<std::uint64_t> fragment_hits_{0};
  std::atomic<std::uint64_t> preseeded_vertices_{0};
  std::atomic<std::uint64_t> oracle_pruned_visitors_{0};
  std::atomic<std::uint64_t> distributed_solves_{0};
  std::atomic<std::uint64_t> net_bytes_sent_{0};
  std::atomic<std::uint64_t> net_bytes_modelled_{0};
  std::atomic<std::uint64_t> net_frames_sent_{0};
  std::atomic<std::uint64_t> net_supersteps_{0};
  std::atomic<std::uint64_t> net_ghost_labels_{0};
  std::atomic<std::uint64_t> cluster_telemetry_samples_{0};
  std::atomic<std::uint64_t> cluster_supersteps_{0};
  std::atomic<std::uint64_t> cluster_straggler_supersteps_{0};
  /// Latest merged cluster trace (rank 0's aggregation), swapped in whole by
  /// record_net_reports; /clusterz copies the shared_ptr under the mutex and
  /// renders lock-free.
  mutable std::mutex cluster_mutex_;
  std::shared_ptr<const runtime::net::cluster_trace> last_cluster_;
  std::array<std::atomic<std::uint64_t>, k_priority_classes> admitted_by_prio_{};
  std::array<std::atomic<std::uint64_t>, k_priority_classes> shed_by_prio_{};

  /// Last member: workers must stop before anything they touch is destroyed.
  executor exec_;
};

}  // namespace dsteiner::service

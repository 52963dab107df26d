#include "service/steiner_service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "runtime/net/dist_solver.hpp"
#include "runtime/parallel/worker_pool.hpp"
#include "util/hash.hpp"

namespace dsteiner::service {

const char* to_string(solve_kind kind) noexcept {
  switch (kind) {
    case solve_kind::cold: return "cold";
    case solve_kind::warm_start: return "warm-start";
    case solve_kind::cache_hit: return "cache-hit";
    case solve_kind::coalesced: return "coalesced";
    case solve_kind::stale_hit: return "stale-hit";
  }
  return "?";
}

steiner_service::steiner_service(graph::csr_graph graph, service_config config)
    : config_(config),
      epochs_(std::move(graph), config.epochs),
      cache_(config.cache),
      fragments_(config.fragment_store),
      oracle_(config.oracle),
      cost_model_(config.cost_model),
      slo_(k_priority_classes, config.slo),
      slow_log_(config.trace.slow_log_capacity),
      flight_recorder_(config.trace.flight_recorder_capacity),
      exec_(config.exec) {
  // Core-budget split: the executor's workers provide inter-query
  // parallelism; whatever the budget leaves per worker goes to the threaded
  // engine inside each solve (intra-query).
  const std::size_t budget =
      config_.core_budget != 0 ? config_.core_budget
                               : runtime::parallel::worker_pool::default_threads();
  const std::size_t workers = std::max<std::size_t>(1, config_.exec.num_threads);
  intra_query_threads_ = std::max<std::size_t>(1, budget / workers);
  grant_worker_budget(config_.solver);
  cache_.set_live_epoch(epochs_.current()->epoch_id());
  // Anchor the oracle's validity tracking to the initial epoch; tables build
  // lazily on first demand (or via warm_distance_oracle()).
  oracle_.advance_epoch(epochs_.current()->fingerprint(), {});
}

void steiner_service::warm_distance_oracle() {
  if (!config_.enable_oracle) return;
  const graph::epoch_graph::ptr epoch = epochs_.current();
  if (!oracle_.needs_build(epoch->fingerprint())) return;
  oracle_.build(*epoch->csr(), epoch->fingerprint());
}

void steiner_service::kick_oracle_build(const graph::epoch_graph::ptr& epoch) {
  if (!config_.enable_oracle) return;
  // Only the current epoch is worth landmark tables: pinned queries on older
  // epochs are a shrinking population.
  const std::uint64_t fp = epoch->fingerprint();
  if (!oracle_.needs_build(fp) ||
      epoch->epoch_id() != epochs_.current()->epoch_id()) {
    return;
  }
  std::uint64_t expected = oracle_kicked_fp_.load(std::memory_order_acquire);
  if (expected == fp ||
      !oracle_kicked_fp_.compare_exchange_strong(expected, fp,
                                                 std::memory_order_acq_rel)) {
    return;  // a build for this epoch is already kicked
  }
  // Any path that discards the build — shed at admission, displaced or
  // expired from the queue, or a failed build — must release the kick token,
  // or the oracle stays suppressed for the whole epoch.
  const auto unkick = [this] {
    oracle_kicked_fp_.store(0, std::memory_order_release);
  };
  executor::task_options opts;
  opts.priority = priority_index(priority_class::background);
  opts.on_dropped = [unkick](drop_reason) { unkick(); };
  const bool posted = exec_.try_post(
      [this, epoch, unkick](double) {
        try {
          oracle_.build(*epoch->csr(), epoch->fingerprint());
        } catch (...) {
          unkick();  // best-effort: queries keep running unpruned; retry later
        }
      },
      std::move(opts));
  if (!posted) unkick();  // shed under saturation; a later cold solve re-kicks
}

void steiner_service::grant_worker_budget(
    core::solver_config& config) const noexcept {
  if (config.mode == runtime::execution_mode::parallel_threads &&
      config.num_threads == 0) {
    config.num_threads = intra_query_threads_;
  }
}

void steiner_service::record_net_reports(
    const std::vector<runtime::net::net_solve_report>& reports,
    obs::query_trace* trace) {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_modelled = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t ghost_labels = 0;
  std::uint64_t supersteps = 0;
  for (const runtime::net::net_solve_report& r : reports) {
    bytes_sent += r.stats.bytes_sent;
    bytes_modelled += r.bytes_modelled;
    frames_sent += r.stats.frames_sent;
    ghost_labels += r.ghost_labels_sent;
    // Supersteps march in lockstep across ranks (the vote is a barrier), so
    // the mesh-wide count is the max, not the sum.
    supersteps = std::max(supersteps, r.supersteps);
    for (const runtime::net::net_superstep_sample& s : r.samples) {
      comm_bytes_modelled_hist_.record(static_cast<double>(s.bytes_modelled) *
                                       1e-6);
      comm_bytes_measured_hist_.record(static_cast<double>(s.bytes_measured) *
                                       1e-6);
    }
  }
  net_bytes_sent_ += bytes_sent;
  net_bytes_modelled_ += bytes_modelled;
  net_frames_sent_ += frames_sent;
  net_ghost_labels_ += ghost_labels;
  net_supersteps_ += supersteps;
  if (trace != nullptr) {
    trace->add_event("net_bytes_sent", static_cast<double>(bytes_sent));
    trace->add_event("net_bytes_modelled",
                     static_cast<double>(bytes_modelled));
    trace->add_event("net_supersteps", static_cast<double>(supersteps));
  }

  // Cluster telemetry plane: rank 0's report carries every rank's merged
  // per-superstep samples (empty when config.net_telemetry is off). Fold
  // them into counters/histograms, merge them into the query trace as
  // per-rank Perfetto tracks, and publish the whole trace for /clusterz.
  for (const runtime::net::net_solve_report& r : reports) {
    if (r.rank != 0 || r.cluster.samples.empty()) continue;
    const std::vector<runtime::net::straggler_row> rows =
        runtime::net::straggler_rows(r.cluster);
    const runtime::net::cluster_summary digest =
        runtime::net::summarize_cluster(r.cluster);
    cluster_telemetry_samples_ += r.cluster.samples.size();
    cluster_supersteps_ += rows.size();
    std::uint64_t straggling = 0;
    for (const runtime::net::straggler_row& row : rows) {
      if (row.compute_skew >= 2.0) ++straggling;
    }
    cluster_straggler_supersteps_ += straggling;
    for (const runtime::net::rank_telemetry& t : r.cluster.samples) {
      cluster_superstep_seconds_hist_.record(
          static_cast<double>(t.total_nanos()) * 1e-9);
      cluster_comm_wait_seconds_hist_.record(
          static_cast<double>(t.comm_nanos()) * 1e-9);
    }
    if (trace != nullptr) {
      for (const runtime::net::rank_telemetry& t : r.cluster.samples) {
        obs::rank_slice slice;
        slice.phase = runtime::net::to_string(
            static_cast<runtime::net::telemetry_phase>(t.phase));
        slice.rank = t.rank;
        slice.superstep = t.superstep;
        slice.compute_seconds = static_cast<double>(t.compute_nanos) * 1e-9;
        slice.send_flush_seconds =
            static_cast<double>(t.send_flush_nanos) * 1e-9;
        slice.recv_wait_seconds = static_cast<double>(t.recv_wait_nanos) * 1e-9;
        slice.visitors = t.visitors;
        for (const runtime::net::telemetry_peer_traffic& p : t.peers) {
          slice.bytes_sent += p.bytes_sent;
        }
        trace->add_rank_slice(slice);
      }
      trace->set_cluster_summary(
          static_cast<std::uint32_t>(digest.world), digest.supersteps,
          digest.critical_rank, digest.critical_supersteps,
          digest.max_compute_skew, digest.comm_wait_fraction);
    }
    auto published = std::make_shared<runtime::net::cluster_trace>(r.cluster);
    {
      const std::lock_guard<std::mutex> lock(cluster_mutex_);
      last_cluster_ = std::move(published);
    }
    break;  // one rank-0 report per solve
  }
}

std::shared_ptr<const runtime::net::cluster_trace>
steiner_service::cluster_trace_snapshot() const {
  const std::lock_guard<std::mutex> lock(cluster_mutex_);
  return last_cluster_;
}

std::uint64_t steiner_service::config_hash(
    const core::solver_config& config) noexcept {
  // Every output- or metrics-affecting field of solver_config and cost_model
  // must be hashed below — a field that drops out of the key lets two
  // distinct configs share a cache entry. These asserts force this function
  // to be revisited when either struct grows (update the expected size
  // alongside the new hash line). Deliberate exception: num_threads is NOT
  // hashed — the threaded engine's schedule is thread-count invariant, so
  // the tree and every phase metric are identical across worker budgets and
  // different budgets may share one cache entry.
  // Deliberate exception #2: `budget` (cancellation/deadline) is NOT hashed —
  // it is pure QoS plumbing that can only abort a solve, never change its
  // output, so budgeted and unbudgeted runs share one cache entry.
  // Deliberate exception #3: `trace` is NOT hashed — tracing is pure
  // observation (traced and untraced solves are bit-identical), so both
  // share one cache entry.
  // Deliberate exception #4: `net_telemetry` is NOT hashed — the distributed
  // telemetry plane is pure observation like `trace` (it moves traffic
  // totals by its own frames but never the output tree), so telemetry-on
  // and -off runs share one cache entry. `growth` has a single value, so
  // there is nothing to hash.
  static_assert(sizeof(runtime::cost_model) == 8 * sizeof(double),
                "cost_model changed: update config_hash");
  static_assert(sizeof(core::solver_config) <= 88 + sizeof(runtime::cost_model),
                "solver_config changed: update config_hash");
  const auto f64 = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  std::uint64_t h = util::hash_combine(0xc0f1, config.num_ranks);
  h = util::hash_combine(h, static_cast<std::uint64_t>(config.policy));
  h = util::hash_combine(h, static_cast<std::uint64_t>(config.mode));
  h = util::hash_combine(h, static_cast<std::uint64_t>(config.scheme));
  h = util::hash_combine(h, config.use_delegates ? 1 : 0);
  h = util::hash_combine(h, config.delegate_threshold);
  h = util::hash_combine(h, config.batch_size);
  h = util::hash_combine(h, config.dense_distance_graph ? 1 : 0);
  h = util::hash_combine(h, config.allreduce_chunk_items);
  h = util::hash_combine(h, config.allow_disconnected_seeds ? 1 : 0);
  h = util::hash_combine(h, config.validate ? 1 : 0);
  h = util::hash_combine(h, f64(config.costs.visit_cost));
  h = util::hash_combine(h, f64(config.costs.reject_cost));
  h = util::hash_combine(h, f64(config.costs.send_cost));
  h = util::hash_combine(h, f64(config.costs.remote_msg_cost));
  h = util::hash_combine(h, f64(config.costs.collective_alpha));
  h = util::hash_combine(h, f64(config.costs.collective_per_byte));
  h = util::hash_combine(h, f64(config.costs.sequential_unit));
  h = util::hash_combine(h, f64(config.costs.unit_seconds));
  return h;
}

std::shared_ptr<detail::request_state> steiner_service::make_request_state(
    const request& r) {
  auto st = std::make_shared<detail::request_state>();
  st->id = ++request_counter_;
  st->priority = r.priority;
  st->budget.cancel = st->canceller.token();
  st->budget.user_cancel = r.cancel;
  if (r.deadline) st->budget.deadline = *r.deadline;
  st->future = st->promise.get_future().share();
  return st;
}

void steiner_service::note_stopped(detail::request_state& st,
                                   util::cancel_reason why) {
  // Status is stored before the caller resolves the promise, so a reader
  // woken by the future observes the terminal status.
  if (why == util::cancel_reason::deadline) {
    ++deadline_expired_;
    st.status.store(request_status::expired, std::memory_order_release);
  } else {
    ++cancelled_;
    st.status.store(request_status::cancelled, std::memory_order_release);
  }
}

executor::task steiner_service::make_task(
    std::shared_ptr<detail::request_state> st, query q) {
  util::timer admitted;
  return [this, st = std::move(st), q = std::move(q),
          admitted](double queue_wait) mutable {
    // Pickup checkpoint: a request cancelled or expired while it queued
    // resolves here without touching a solver — the worker moves straight on
    // to live work.
    const util::cancel_reason pre = st->budget.stop_reason();
    if (pre != util::cancel_reason::none) {
      note_stopped(*st, pre);
      st->promise.set_exception(
          std::make_exception_ptr(util::operation_cancelled(pre)));
      return;
    }
    st->status.store(request_status::running, std::memory_order_release);
    try {
      query_result out =
          execute(std::move(q), queue_wait, admitted,
                  exec_context{&st->budget, st->estimates, st->id,
                               st->priority});
      st->status.store(request_status::done, std::memory_order_release);
      st->promise.set_value(std::move(out));
    } catch (const util::operation_cancelled& stopped) {
      // A checkpoint stopped the solve mid-flight: partial work is already
      // discarded by the unwind; record end-to-end latency so snapshot()'s
      // per-stage sample counts reconcile.
      total_hist_.record(admitted.seconds());
      note_stopped(*st, stopped.why());
      st->promise.set_exception(std::current_exception());
    } catch (...) {
      // Failed queries still complete: record their end-to-end latency so
      // snapshot()'s per-stage sample counts reconcile (every query that
      // recorded a queue wait also lands in `total`).
      total_hist_.record(admitted.seconds());
      st->status.store(request_status::failed, std::memory_order_release);
      st->promise.set_exception(std::current_exception());
    }
  };
}

void steiner_service::dispatch(request r,
                               std::shared_ptr<detail::request_state> st) {
  const std::size_t prio = priority_index(r.priority);
  const auto reject = [&](reject_reason why) {
    ++shed_by_prio_[prio];
    st->rejection.store(why, std::memory_order_release);
    st->status.store(request_status::rejected, std::memory_order_release);
    st->promise.set_exception(std::make_exception_ptr(request_rejected(why)));
  };

  // Dead on arrival (already-cancelled token, already-passed deadline):
  // resolve without touching the queue.
  const util::cancel_reason pre = st->budget.stop_reason();
  if (pre != util::cancel_reason::none) {
    note_stopped(*st, pre);
    st->promise.set_exception(
        std::make_exception_ptr(util::operation_cancelled(pre)));
    return;
  }

  // Cost-aware admission: only requests with deadlines can be unmeetable,
  // but with tracing, the learned cost model, or SLO tracking on, the
  // estimate is computed anyway — traces report estimate-vs-actual error and
  // the model-vs-baseline histograms need both predictions per query.
  if (r.deadline || config_.trace.enabled || config_.cost_model.enabled ||
      config_.slo.enabled) {
    const admission_estimates est = estimate_completion_seconds(r);
    st->estimates = est;
    if (r.deadline && est.used > 0.0 &&
        std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(est.used)) >
            *r.deadline) {
      ++deadline_rejected_;
      reject(reject_reason::deadline_unmeetable);
      return;
    }
  }

  executor::task_options opts;
  opts.priority = prio;
  opts.deadline = st->budget.deadline;
  opts.on_dropped = [this, st, prio](drop_reason why) {
    if (why == drop_reason::expired) {
      ++shed_by_prio_[prio];
      note_stopped(*st, util::cancel_reason::deadline);
      st->promise.set_exception(std::make_exception_ptr(
          util::operation_cancelled(util::cancel_reason::deadline)));
    } else {  // displaced by a higher-priority arrival
      ++shed_by_prio_[prio];
      st->rejection.store(reject_reason::queue_full, std::memory_order_release);
      st->status.store(request_status::rejected, std::memory_order_release);
      st->promise.set_exception(
          std::make_exception_ptr(request_rejected(reject_reason::queue_full)));
    }
  };

  executor::task t = make_task(st, std::move(r.q));
  if (!exec_.try_post(std::move(t), std::move(opts))) {
    reject(reject_reason::queue_full);
    return;
  }
  ++admitted_by_prio_[prio];
}

query_handle steiner_service::submit(request r) {
  auto st = make_request_state(r);
  dispatch(std::move(r), st);
  return query_handle(std::move(st));
}

query_result steiner_service::solve(request r) {
  return submit(std::move(r)).get();
}

std::uint64_t steiner_service::advance_epoch(const graph::edge_delta& delta) {
  const graph::epoch_graph::ptr next = epochs_.advance(delta);
  ++epoch_advances_;
  // Epoch-retirement eviction: new-epoch entries are now the protected
  // ones; everything from epochs that left the live window is purged.
  cache_.set_live_epoch(next->epoch_id());
  const std::uint64_t first_live = epochs_.first_live_epoch();
  (void)cache_.retire_epochs_before(first_live);
  (void)fragments_.retire_epochs_before(first_live);
  // The oracle degrades instead of dying: stale landmark tables keep valid
  // upper bounds unless the applied delta raised or disabled an edge.
  oracle_.advance_epoch(next->fingerprint(), next->delta_from_parent());
  {
    const std::lock_guard<std::mutex> lock(donors_mutex_);
    std::erase_if(donors_, [first_live](const donor_record& rec) {
      return rec.epoch_id < first_live;
    });
  }
  return next->epoch_id();
}

std::optional<steiner_service::donor_match> steiner_service::find_donor(
    std::span<const graph::vertex_id> canonical_seeds,
    const graph::epoch_graph& epoch) {
  const std::lock_guard<std::mutex> lock(donors_mutex_);
  std::optional<donor_match> best;
  for (const donor_record& rec : donors_) {
    if (!std::ranges::equal(rec.artifacts->seeds, canonical_seeds)) continue;
    std::vector<graph::applied_edge_edit> edits;
    if (rec.epoch_id != epoch.epoch_id()) {
      auto composed = epochs_.delta_between(rec.epoch_id, epoch.epoch_id());
      if (!composed || composed->size() > config_.warm_edge_edit_limit) {
        continue;
      }
      edits = std::move(*composed);
    }
    // Strict <: ties go to the most recent donor (front-to-back iteration).
    if (!best || edits.size() < best->edits.size()) {
      best = donor_match{rec.artifacts, rec.graph_fingerprint, std::move(edits)};
      if (best->edits.empty()) break;  // same-epoch donor: nothing to repair
    }
  }
  return best;
}

void steiner_service::remember_donor(donor_ptr donor, std::uint64_t epoch_id) {
  donor_record rec;
  rec.epoch_id = epoch_id;
  rec.graph_fingerprint = donor->graph_fingerprint;
  rec.artifacts = std::move(donor);

  const std::lock_guard<std::mutex> lock(donors_mutex_);
  if (epoch_id < epochs_.first_live_epoch()) return;  // raced a retirement
  // One donor per (epoch, seed set): repeated solves of a hot set refresh
  // its slot instead of flushing the other sets out of the bounded registry.
  for (auto it = donors_.begin(); it != donors_.end(); ++it) {
    if (it->epoch_id == epoch_id &&
        it->artifacts->seeds == rec.artifacts->seeds) {
      donors_.erase(it);
      break;
    }
  }
  donors_.push_front(std::move(rec));
  while (donors_.size() > config_.donor_history) donors_.pop_back();
}

obs::query_features steiner_service::build_query_features(
    const graph::epoch_graph& epoch,
    std::span<const graph::vertex_id> canonical,
    const core::solver_config& solver_config, bool warm) const {
  using qf = obs::query_features;
  // Header counts only — materializing an overlay CSR at admission would
  // cost O(m) on the request path.
  obs::query_features f = core::extract_query_features(
      epoch.num_vertices(), epoch.num_arcs(), canonical.size(), solver_config);
  const std::uint64_t arcs = epoch.num_arcs();
  f.x[qf::k_overlay] =
      arcs == 0 ? 0.0
                : static_cast<double>(epoch.overlay_arcs()) /
                      static_cast<double>(arcs);
  f.x[qf::k_warm] = warm ? 1.0 : 0.0;
  if (!warm && config_.enable_fragment_reuse && canonical.size() > 1) {
    std::size_t present = 0;
    for (const graph::vertex_id s : canonical) {
      if (fragments_.has(epoch.fingerprint(), s)) ++present;
    }
    f.x[qf::k_fragments] = static_cast<double>(present) /
                           static_cast<double>(canonical.size());
  }
  return f;
}

admission_estimates steiner_service::estimate_completion_seconds(
    const request& r) {
  admission_estimates est;
  // Queue drain ahead of this arrival: entries at its priority or above,
  // spread over the workers, each costing the executor's observed mean task
  // time. No execution history yet -> contributes nothing (admit unknowns).
  const double mean_task = exec_.stats().mean_exec_seconds();
  const double backlog =
      static_cast<double>(exec_.backlog_ahead(priority_index(r.priority)));
  const double workers = static_cast<double>(exec_.num_threads());
  double drain = mean_task * backlog / workers;
  // The queue is only half the drain: solves already *running* occupy the
  // same workers. Charge each one's expected residual (mean cost minus its
  // own elapsed time, floored at zero per task — a task past its mean is
  // presumed near completion, but cannot offset the others' remaining work).
  if (mean_task > 0.0) {
    double residual = 0.0;
    for (const double elapsed : exec_.running_elapsed_seconds()) {
      residual += std::max(0.0, mean_task - elapsed);
    }
    drain += residual / workers;
  }
  est.baseline = drain;
  est.used = drain;

  // Per-path solve estimate, predicted the same way execute() will decide:
  // cached -> near-free, warm-startable -> warm p50, otherwise cold p50.
  // Canonicalization failures (invalid seeds) and retired epoch pins must
  // surface at execution as failures, never as admission rejections.
  const graph::epoch_graph::ptr epoch =
      r.q.epoch ? epochs_.find(*r.q.epoch) : epochs_.current();
  if (epoch == nullptr) return est;
  std::vector<graph::vertex_id> canonical;
  try {
    canonical = core::canonicalize_seeds(epoch->num_vertices(), r.q.seeds);
  } catch (const std::out_of_range&) {
    return est;
  }
  core::solver_config solver_config = r.q.config.value_or(config_.solver);
  grant_worker_budget(solver_config);
  const cache_key key{
      epoch->fingerprint(),
      util::hash_range(canonical.data(), canonical.size(), 0x5eed),
      config_hash(solver_config)};
  if (config_.enable_cache && r.q.use_cache && cache_.peek(key, canonical)) {
    // No solver will run: the learned model predicts solve time, so only
    // the baseline path can price a cache hit.
    est.baseline = drain + cache_hit_total_hist_.snapshot().quantile(0.5);
    est.used = est.baseline;
    return est;
  }
  const bool warmable = config_.enable_warm_start && r.q.allow_warm_start &&
                        canonical.size() > 1 &&
                        find_donor(canonical, *epoch).has_value();
  const double warm_p50 = warm_solve_hist_.snapshot().quantile(0.5);
  const double cold_p50 = cold_solve_hist_.snapshot().quantile(0.5);
  est.baseline = drain + (warmable && warm_p50 > 0.0 ? warm_p50 : cold_p50);
  est.used = est.baseline;

  // Learned model: per-query features in, predicted solve seconds out.
  // Admission trusts it once it has min_samples observations; before that
  // the prediction is still exported for the side-by-side comparison.
  if (config_.cost_model.enabled) {
    const obs::query_features f =
        build_query_features(*epoch, canonical, solver_config, warmable);
    const double predicted = cost_model_.predict_seconds(f);
    if (predicted > 0.0) {
      est.model = drain + predicted;
      if (cost_model_.ready()) {
        est.used = est.model;
        est.model_used = true;
        ++model_admissions_;
      }
    }
  }
  return est;
}

void steiner_service::refresh_in_background(
    std::vector<graph::vertex_id> seeds,
    std::optional<core::solver_config> config) {
  // Refresh token: at most one in-flight refresh per (epoch, seeds, config)
  // key — a burst of stale hits on a hot set must not fan out into a queue
  // of identical background solves that then merely coalesce downstream.
  core::solver_config solver_config = config.value_or(config_.solver);
  grant_worker_budget(solver_config);
  const graph::epoch_graph::ptr epoch = epochs_.current();
  const cache_key key{epoch->fingerprint(),
                      util::hash_range(seeds.data(), seeds.size(), 0x5eed),
                      config_hash(solver_config)};
  {
    const std::lock_guard<std::mutex> lock(refresh_mutex_);
    if (!refreshing_.insert(key).second) {
      ++stale_refreshes_deduped_;
      return;
    }
  }
  const auto release = [this, key] {
    const std::lock_guard<std::mutex> lock(refresh_mutex_);
    refreshing_.erase(key);
  };

  query refresh;
  refresh.seeds = std::move(seeds);
  refresh.config = std::move(config);
  refresh.allow_stale = false;  // the refresh must actually solve (or coalesce)
  executor::task_options opts;
  opts.priority = priority_index(priority_class::background);
  opts.on_dropped = [release](drop_reason) { release(); };
  const bool posted = exec_.try_post(
      [this, refresh = std::move(refresh), release](double queue_wait) mutable {
        util::timer admitted;
        try {
          (void)execute(std::move(refresh), queue_wait, admitted);
        } catch (...) {
          // Best-effort: a failed refresh leaves the stale entry serving.
        }
        release();
      },
      std::move(opts));
  if (!posted) {
    release();  // shed when saturated: a later stale hit may retry
    return;
  }
  ++stale_refreshes_;
}

query_result steiner_service::execute(query q, double queue_wait,
                                      util::timer admitted, exec_context ctx) {
  const util::run_budget* budget = ctx.budget;
  if (budget != nullptr) budget->check();
  query_result out;
  out.query_id = ++query_counter_;
  out.queue_wait_seconds = queue_wait;
  queue_wait_hist_.record(queue_wait);

  // Head sampling: deterministic counter modulo (not RNG) so one in
  // round(1/sample_rate) queries is sampled exactly — testable, and immune
  // to unlucky streaks. Sampled queries get a full trace even when tracing
  // is off; the capture is pure observation, so the solve stays
  // bit-identical either way.
  bool sampled = false;
  if (config_.trace.sample_rate > 0.0) {
    const auto period = static_cast<std::uint64_t>(
        std::llround(1.0 / config_.trace.sample_rate));
    const std::uint64_t tick =
        sample_ticker_.fetch_add(1, std::memory_order_relaxed);
    sampled = period <= 1 || tick % period == 0;
  }

  // Resolve the target epoch at execution time; pinned queries must still be
  // live. The epoch's CSR is deliberately NOT materialized here: cache hits,
  // stale hits and coalesced waits never need it, and materializing a fresh
  // epoch costs O(m).
  const graph::epoch_graph::ptr epoch =
      q.epoch ? epochs_.find(*q.epoch) : epochs_.current();
  if (epoch == nullptr) {
    throw std::invalid_argument(
        "steiner_service: query pinned to a retired or unknown epoch");
  }
  out.epoch = epoch->epoch_id();

  core::solver_config solver_config = q.config.value_or(config_.solver);
  grant_worker_budget(solver_config);
  // QoS plumbing only — budget is deliberately absent from config_hash, so
  // it must be attached after the hash-relevant fields are settled.
  solver_config.budget = budget;

  // Query-scoped tracing: origin back-dated to admission so the two service
  // spans (admission bookkeeping, queue wait) land before offset "now". Like
  // budget, the trace pointer is absent from config_hash (pure observation).
  std::shared_ptr<obs::query_trace> trace;
  if (config_.trace.enabled || sampled) {
    const std::size_t lanes =
        std::max<std::size_t>(1, solver_config.num_threads);
    trace = std::make_shared<obs::query_trace>(config_.trace, lanes,
                                               admitted.seconds());
    const double pickup = trace->now_seconds();
    const double queued_at = std::max(0.0, pickup - queue_wait);
    trace->add_span({"admission", "service", 0.0, queued_at, 0, 0, 0, 0.0});
    trace->add_span(
        {"queue_wait", "service", queued_at, pickup - queued_at, 0, 0, 0, 0.0});
    solver_config.trace = trace.get();
    if (sampled) ++sampled_traces_;
  }
  // Completion bookkeeping shared by every successful return path: SLO
  // scoring, estimate-error histograms, then trace finalize + retention
  // (slow log for threshold/SLO outliers, flight recorder for samples).
  const auto finish_query = [&](double modelled) {
    const std::size_t cls = priority_index(ctx.priority);
    bool violating = false;
    if (config_.slo.enabled) {
      violating = slo_.violates(cls, out.total_seconds);
      if (violating) ++slo_violations_;
      slo_.record(cls, out.total_seconds);
    }
    if (ctx.estimates.used > 0.0) {
      estimate_error_hist_.record(
          std::abs(out.total_seconds - ctx.estimates.used));
    }
    // Paired model-vs-baseline residuals, recorded only for model-priced
    // admissions so both histograms describe the same query population.
    if (ctx.estimates.model_used) {
      estimate_error_model_hist_.record(
          std::abs(out.total_seconds - ctx.estimates.model));
      estimate_error_baseline_hist_.record(
          std::abs(out.total_seconds - ctx.estimates.baseline));
    }
    if (trace == nullptr) return;
    trace->finalize(ctx.request_id, out.query_id, queue_wait,
                    out.solve_seconds, out.total_seconds, ctx.estimates.used,
                    modelled);
    out.trace = trace;
    const double threshold = config_.trace.slow_query_threshold_seconds;
    const bool slow = threshold > 0.0 && out.total_seconds >= threshold;
    if (slow || violating) {
      // SLO violators are force-retained even under the slow threshold —
      // a violated objective is an outlier by definition.
      ++slow_queries_;
      slow_log_.push(trace);
    } else if (sampled) {
      flight_recorder_.push(trace);
    }
  };

  const std::vector<graph::vertex_id> canonical =
      core::canonicalize_seeds(epoch->num_vertices(), q.seeds);
  const std::uint64_t seed_hash =
      util::hash_range(canonical.data(), canonical.size(), 0x5eed);
  const std::uint64_t cfg_hash = config_hash(solver_config);
  const cache_key key{epoch->fingerprint(), seed_hash, cfg_hash};
  const bool cacheable = config_.enable_cache && q.use_cache;

  const auto finish_from_entry = [&](const cached_solve& entry,
                                     solve_kind kind) {
    out.result = entry.result;
    out.kind = kind;
    out.epoch = entry.epoch_id;
    out.total_seconds = admitted.seconds();
    if (kind == solve_kind::cache_hit) {
      cache_hit_total_hist_.record(out.total_seconds);
    }
    total_hist_.record(out.total_seconds);
    // Solver never ran on this path: no modelled time to compare against.
    finish_query(0.0);
    return out;
  };

  // Single-flight admission for cacheable queries: serve from the cache,
  // wait on an identical in-flight solve, or become the leader that solves.
  std::promise<result_cache::entry_ptr> inflight_promise;
  std::shared_ptr<inflight_interest> interest;
  bool leader = false;
  if (cacheable) {
    if (const auto hit = cache_.find(key, canonical)) {
      ++cache_hits_;
      return finish_from_entry(*hit, solve_kind::cache_hit);
    }
    // Stale-while-warming: the current epoch has no entry yet, but a recent
    // live epoch might — serve its (explicitly marked) tree and refresh the
    // current epoch in the background, so graph edits don't stall readers
    // behind a cold solve. Probe newest-first: when several stale epochs
    // hold the set, the least-stale tree wins.
    if (!q.epoch && q.allow_stale && config_.max_stale_epochs > 0) {
      const auto live = epochs_.live();  // oldest first
      for (auto it = live.rbegin(); it != live.rend(); ++it) {
        const graph::epoch_graph::ptr& old_epoch = *it;
        if (old_epoch->epoch_id() >= epoch->epoch_id()) continue;
        if (epoch->epoch_id() - old_epoch->epoch_id() >
            config_.max_stale_epochs) {
          break;  // everything further back is older still
        }
        const cache_key stale_key{old_epoch->fingerprint(), seed_hash, cfg_hash};
        if (const auto stale =
                cache_.find(stale_key, canonical, /*count_miss=*/false)) {
          ++stale_hits_;
          refresh_in_background(canonical, q.config);
          return finish_from_entry(*stale, solve_kind::stale_hit);
        }
      }
    }
    // Single-flight admission loop: become the leader, or wait on the
    // current one. A waiter resumes the loop when the leader was *cancelled*
    // or expired — that says nothing about this query — and the next pass
    // re-probes the cache and may inherit leadership.
    bool solve_independently = false;
    while (!leader && !solve_independently) {
      std::shared_future<result_cache::entry_ptr> waiter;
      std::shared_ptr<inflight_interest> rider_share;
      {
        const std::lock_guard<std::mutex> lock(inflight_mutex_);
        // Re-check under the lock: a leader publishes to the cache before it
        // deregisters, so missing both cache and registry here is impossible.
        // The outer lookup already counted this query's miss.
        if (const auto hit = cache_.find(key, canonical, /*count_miss=*/false)) {
          ++cache_hits_;
          return finish_from_entry(*hit, solve_kind::cache_hit);
        }
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
          waiter = it->second.result;
          rider_share = it->second.interest;
          // Join while still holding the registry lock: joining later would
          // leave a window where the previous last share departs and fires
          // the group-abandon token out from under this live waiter.
          rider_share->join();
        } else {
          leader = true;
          interest = std::make_shared<inflight_interest>();
          // The leader's own requester (when there is one — background
          // refreshes have none) holds a share for the whole solve: its
          // cancellation already stops the solve through its own budget.
          if (budget != nullptr) interest->join();
          inflight_.emplace(
              key,
              inflight_entry{inflight_promise.get_future().share(), interest});
          break;
        }
      }
      // Rider share (joined above, under the lock): released on every exit —
      // result, collision, abandonment, leader failure. When the last share
      // leaves, the group-abandon source fires and the leader's solve stops
      // at its next checkpoint instead of finishing for nobody.
      struct share_guard {
        inflight_interest* share;
        ~share_guard() { share->leave(); }
      } guard{rider_share.get()};
      try {
        // Budget-aware park: a coalesced waiter still honours its own
        // cancellation and deadline while the leader works.
        if (budget != nullptr) {
          while (waiter.wait_for(std::chrono::milliseconds(1)) !=
                 std::future_status::ready) {
            budget->check();
          }
        }
        const result_cache::entry_ptr entry = waiter.get();  // rethrows failures
        if (entry != nullptr && entry->seeds == canonical) {
          ++coalesced_;
          return finish_from_entry(*entry, solve_kind::coalesced);
        }
        // 64-bit key collision with a different seed set: solve independently.
        solve_independently = true;
      } catch (const util::operation_cancelled&) {
        if (budget != nullptr) budget->check();  // our own stop propagates
        // The leader was stopped, not us: retry (and maybe lead).
      }
    }
  }

  // Group abandonment: the leader's solve runs under a budget that also
  // observes the single-flight interest token, so it stops (at a checkpoint)
  // once its requester and every rider have walked away — a requester-less
  // leader (background refresh) with no riders keeps the inert default
  // token and runs to completion for the cache.
  util::run_budget group_budget;
  if (leader && interest != nullptr) {
    if (budget != nullptr) group_budget = *budget;
    group_budget.group_cancel = interest->abandoned.token();
    solver_config.budget = &group_budget;
  }

  // From leadership registration to promise resolution, every throw —
  // including allocation failures building the cache entry — must resolve
  // the inflight promise and deregister, or coalesced waiters hang forever
  // and the key stays poisoned.
  util::timer solve_timer;
  std::shared_ptr<core::solve_artifacts> artifacts;
  result_cache::entry_ptr entry;
  double modelled = 0.0;
  try {
    // A solve is actually happening: materialize the epoch's CSR now.
    // Holding the shared_ptr keeps it valid even if the epoch retires
    // mid-solve.
    const std::shared_ptr<const graph::csr_graph> csr = epoch->csr();
    // Artifacts are only worth their O(|V|) capture cost if warm starts or
    // fragment publishing can ever consume them.
    if (config_.enable_warm_start || config_.enable_fragment_reuse) {
      artifacts = std::make_shared<core::solve_artifacts>();
    }
    bool warmed = false;
    if (config_.enable_warm_start && q.allow_warm_start &&
        canonical.size() > 1) {
      if (const auto match = find_donor(canonical, *epoch)) {
        if (trace != nullptr) {
          trace->add_event("donor_pick",
                           static_cast<double>(match->edits.size()));
        }
        try {
          // Empty edits rebuild a same-epoch donor's tree from its
          // artifacts; otherwise this is a cross-epoch repair over the
          // composed edge delta.
          out.result = core::solve_steiner_tree_edge_warm(
              *csr, *match->artifacts, match->graph_fingerprint,
              match->edits, solver_config, artifacts.get(), &out.warm);
          out.kind = solve_kind::warm_start;
          ++warm_solves_;
          if (!match->edits.empty()) ++edge_warm_solves_;
          warmed = true;
        } catch (const std::invalid_argument&) {
          // Donor did not match after all (defensive): cold solve below.
          ++warm_fallbacks_;
        }
      }
    }
    if (!warmed) {
      if (config_.distributed.world >= 2) {
        // Distributed cold path (runtime/net/): the solve runs as `world`
        // loopback comm_backend ranks exchanging the same typed frames the
        // TCP mesh carries, with hash-partitioned vertex state and one
        // termination vote per superstep. The tree is bit-identical to the
        // in-process solver. No warm capture or fragment assists here —
        // per-rank state is sharded, so there is no whole-graph artifact to
        // keep.
        artifacts.reset();
        std::vector<runtime::net::net_solve_report> reports;
        out.result = runtime::net::solve_loopback(*csr, canonical,
                                                  solver_config,
                                                  config_.distributed.world,
                                                  &reports);
        record_net_reports(reports, trace.get());
        ++distributed_solves_;
      } else {
        // Shared-substrate assists: borrow the fragments of whichever seeds
        // earlier solves settled on this epoch (pre-seeding phase 1 from
        // their surface) and fetch landmark upper bounds to prune the rest.
        // Both are output-neutral; a fragment-assisted solve still counts as
        // cold.
        core::solve_assists assists;
        std::vector<core::sssp_fragment_view> frag_views;
        std::vector<distshare::fragment_ptr> borrowed;
        if (config_.enable_fragment_reuse && q.allow_warm_start &&
            canonical.size() > 1) {
          for (const graph::vertex_id s : canonical) {
            if (distshare::fragment_ptr f =
                    fragments_.borrow(epoch->fingerprint(), s)) {
              frag_views.push_back(f->view());
              borrowed.push_back(std::move(f));
              if (trace != nullptr) {
                trace->add_event("fragment_borrow", static_cast<double>(s));
              }
            }
          }
          assists.fragments = frag_views;
        }
        std::vector<graph::weight_t> prune_bound;
        if (config_.enable_oracle && canonical.size() > 1) {
          prune_bound = oracle_.prune_bounds(epoch->fingerprint(), canonical);
          assists.prune_upper_bound = prune_bound;
          if (prune_bound.empty()) kick_oracle_build(epoch);
          if (trace != nullptr && !prune_bound.empty()) {
            trace->add_event("oracle_prune_bounds",
                             static_cast<double>(prune_bound.size()));
          }
        }
        out.result = core::solve_steiner_tree_assisted(
            *csr, canonical, assists, solver_config, artifacts.get(),
            &out.assist);
        if (out.assist.fragments_injected > 0) {
          ++fragment_assisted_;
          fragment_hits_ += out.assist.fragments_injected;
          preseeded_vertices_ += out.assist.preseeded_vertices;
        }
        oracle_pruned_visitors_ += out.assist.pruned_visitors;
      }
      out.kind = solve_kind::cold;
      ++cold_solves_;
    }
    out.solve_seconds = solve_timer.seconds();
    (out.kind == solve_kind::warm_start ? warm_solve_hist_ : cold_solve_hist_)
        .record(out.solve_seconds);
    // Measured-vs-model: what the cost model says this solve should have
    // cost, against what it did cost. Recorded for every real solve so the
    // histograms work with tracing off.
    modelled = out.result.phases.total().sim_seconds(solver_config.costs);
    modelled_solve_hist_.record(modelled);
    model_abs_error_hist_.record(std::abs(out.solve_seconds - modelled));
    // Train the admission cost model on what actually happened: realized
    // path (warm flag) and realized fragment assists, not the admission-time
    // guesses. One O(d^2) RLS update per real solve.
    if (config_.cost_model.enabled) {
      obs::query_features f = build_query_features(
          *epoch, canonical, solver_config,
          out.kind == solve_kind::warm_start);
      f.x[obs::query_features::k_fragments] =
          canonical.empty() ? 0.0
                            : static_cast<double>(out.assist.fragments_injected) /
                                  static_cast<double>(canonical.size());
      cost_model_.observe(f, out.solve_seconds);
    }

    auto fresh = std::make_shared<cached_solve>();
    fresh->seeds = canonical;
    fresh->result = out.result;
    fresh->solve_cost_seconds = out.solve_seconds;
    fresh->epoch_id = epoch->epoch_id();
    entry = std::move(fresh);
  } catch (...) {
    if (leader) {
      // Abandoned-group accounting: the group token fired and the leader's
      // own budget (when it has one) is clean — the solve died because
      // nobody wanted it anymore, not because its requester stopped it.
      if (interest != nullptr && interest->abandoned.cancel_requested() &&
          (budget == nullptr ||
           budget->stop_reason() == util::cancel_reason::none)) {
        ++leader_abandoned_;
      }
      inflight_promise.set_exception(std::current_exception());
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    throw;
  }

  if (leader) inflight_promise.set_value(entry);
  if (cacheable) cache_.insert(key, entry);
  if (leader) {
    // Deregister only after the cache insert: queries that miss both the
    // cache and this registry entry would otherwise race into extra solves.
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  if (artifacts != nullptr && !artifacts->empty()) {
    // Publish per-seed fragments before the artifacts move into the donor
    // registry: later overlapping queries pre-seed from them (the epoch
    // fingerprint keys consumers to the exact graph content these labels
    // are valid on).
    if (config_.enable_fragment_reuse) {
      (void)fragments_.publish_from_state(epoch->fingerprint(),
                                          epoch->epoch_id(), artifacts->state,
                                          canonical, out.solve_seconds);
    }
    if (config_.enable_warm_start) {
      remember_donor(std::move(artifacts), epoch->epoch_id());
    }
  }

  out.total_seconds = admitted.seconds();
  total_hist_.record(out.total_seconds);
  finish_query(modelled);
  return out;
}

service_stats steiner_service::stats() const {
  service_stats s;
  s.queries = query_counter_.load();
  s.cold_solves = cold_solves_.load();
  s.warm_solves = warm_solves_.load();
  s.edge_warm_solves = edge_warm_solves_.load();
  s.warm_fallbacks = warm_fallbacks_.load();
  s.cache_hits = cache_hits_.load();
  s.stale_hits = stale_hits_.load();
  s.coalesced = coalesced_.load();
  s.epoch_advances = epoch_advances_.load();
  s.cancelled = cancelled_.load();
  s.deadline_rejected = deadline_rejected_.load();
  s.deadline_expired = deadline_expired_.load();
  s.stale_refreshes = stale_refreshes_.load();
  s.stale_refreshes_deduped = stale_refreshes_deduped_.load();
  s.leader_abandoned = leader_abandoned_.load();
  s.slow_queries = slow_queries_.load();
  s.fragment_assisted = fragment_assisted_.load();
  s.fragment_hits = fragment_hits_.load();
  s.preseeded_vertices = preseeded_vertices_.load();
  s.oracle_pruned_visitors = oracle_pruned_visitors_.load();
  s.oracle_builds = oracle_.stats().builds;
  s.distributed_solves = distributed_solves_.load();
  s.net_bytes_sent = net_bytes_sent_.load();
  s.net_bytes_modelled = net_bytes_modelled_.load();
  s.net_frames_sent = net_frames_sent_.load();
  s.net_supersteps = net_supersteps_.load();
  s.net_ghost_labels = net_ghost_labels_.load();
  s.cluster_telemetry_samples = cluster_telemetry_samples_.load();
  s.cluster_supersteps = cluster_supersteps_.load();
  s.cluster_straggler_supersteps = cluster_straggler_supersteps_.load();
  s.sampled_traces = sampled_traces_.load();
  s.slo_violations = slo_violations_.load();
  s.model_admissions = model_admissions_.load();
  for (std::size_t p = 0; p < k_priority_classes; ++p) {
    s.admitted_by_priority[p] = admitted_by_prio_[p].load();
    s.shed_by_priority[p] = shed_by_prio_[p].load();
  }
  s.cache = cache_.snapshot();
  s.exec = exec_.stats();
  s.fragments = fragments_.snapshot();
  return s;
}

service_snapshot steiner_service::snapshot() const {
  service_snapshot snap;
  snap.stats = stats();
  snap.queue_wait = queue_wait_hist_.snapshot();
  snap.cold_solve = cold_solve_hist_.snapshot();
  snap.warm_solve = warm_solve_hist_.snapshot();
  snap.cache_hit_total = cache_hit_total_hist_.snapshot();
  snap.total = total_hist_.snapshot();
  snap.modelled_solve = modelled_solve_hist_.snapshot();
  snap.model_abs_error = model_abs_error_hist_.snapshot();
  snap.estimate_error = estimate_error_hist_.snapshot();
  snap.estimate_error_model = estimate_error_model_hist_.snapshot();
  snap.estimate_error_baseline = estimate_error_baseline_hist_.snapshot();
  snap.comm_bytes_modelled = comm_bytes_modelled_hist_.snapshot();
  snap.comm_bytes_measured = comm_bytes_measured_hist_.snapshot();
  snap.cluster_superstep_seconds = cluster_superstep_seconds_hist_.snapshot();
  snap.cluster_comm_wait_seconds = cluster_comm_wait_seconds_hist_.snapshot();
  snap.cost_model = cost_model_.snapshot();
  snap.slo = slo_.snapshot();
  return snap;
}

}  // namespace dsteiner::service

#include "service/metrics_text.hpp"

#include <cstdint>

#include "obs/prom_text.hpp"

namespace dsteiner::service {

namespace {

/// A counter family with one `priority`-labelled series per class.
void priority_counter(
    obs::prom_writer& w, std::string_view name, std::string_view help,
    const std::array<std::uint64_t, k_priority_classes>& values) {
  w.family(name, obs::prom_type::counter, help);
  for (std::size_t p = 0; p < k_priority_classes; ++p) {
    w.sample(values[p],
             {{"priority", to_string(static_cast<priority_class>(p))}});
  }
}

[[nodiscard]] const char* slo_class_name(std::size_t p) noexcept {
  return p < k_priority_classes ? to_string(static_cast<priority_class>(p))
                                : "other";
}

/// The SLO families: per-class objectives and lifetime good/bad counters,
/// plus the short/long-window burn-rate gauges. Shared between /metrics and
/// the standalone /slo route so both expose identical series.
void append_slo_block(obs::prom_writer& w, const obs::slo_snapshot& slo) {
  using obs::prom_type;
  w.gauge("slo_error_budget",
          "Allowed bad-event fraction over the long window", slo.error_budget);

  w.family("slo_objective_seconds", prom_type::gauge,
           "Latency objective per priority class");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    w.sample(slo.classes[p].objective_seconds,
             {{"priority", slo_class_name(p)}});
  }

  w.family("slo_good_total", prom_type::counter,
           "Completions within the class objective");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    w.sample(slo.classes[p].good_total, {{"priority", slo_class_name(p)}});
  }

  w.family("slo_bad_total", prom_type::counter,
           "Completions past the class objective");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    w.sample(slo.classes[p].bad_total, {{"priority", slo_class_name(p)}});
  }

  w.family("slo_burn_rate", prom_type::gauge,
           "Error-budget burn rate (1.0 = budget spent exactly at the "
           "sustainable rate) per priority class and window");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    const auto& c = slo.classes[p];
    w.sample(c.burn_rate_short,
             {{"priority", slo_class_name(p)}, {"window", "short"}});
    w.sample(c.burn_rate_long,
             {{"priority", slo_class_name(p)}, {"window", "long"}});
  }

  w.family("slo_window_queries", prom_type::gauge,
           "Completions scored inside the window, per priority class");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    const auto& c = slo.classes[p];
    w.sample(c.short_good + c.short_bad,
             {{"priority", slo_class_name(p)}, {"window", "short"}});
    w.sample(c.long_good + c.long_bad,
             {{"priority", slo_class_name(p)}, {"window", "long"}});
  }
}

}  // namespace

std::string render_metrics_text(const service_snapshot& snap,
                                std::string_view prefix) {
  const service_stats& s = snap.stats;
  std::string out;
  out.reserve(8192);
  obs::prom_writer w(out, prefix);

  w.counter("queries_total", "Queries executed", s.queries);
  w.counter("cold_solves_total", "Full Alg. 3 solves", s.cold_solves);
  w.counter("warm_solves_total", "Warm-start repairs of a donor's seed set",
            s.warm_solves);
  w.counter("edge_warm_solves_total",
            "Warm-start repairs that crossed graph epochs", s.edge_warm_solves);
  w.counter("warm_fallbacks_total", "Warm attempts that fell back to cold",
            s.warm_fallbacks);
  w.counter("cache_hits_total", "Queries served from the result cache",
            s.cache_hits);
  w.counter("stale_hits_total", "Queries served from an older live epoch",
            s.stale_hits);
  w.counter("coalesced_total",
            "Queries that waited on an identical in-flight solve", s.coalesced);
  w.counter("epoch_advances_total", "Graph epochs derived by edge edits",
            s.epoch_advances);

  w.counter("cancelled_total",
            "Requests stopped by cancellation (queued or mid-solve)",
            s.cancelled);
  w.counter("deadline_rejected_total",
            "Requests rejected at admission as deadline-unmeetable",
            s.deadline_rejected);
  w.counter("deadline_expired_total",
            "Requests whose deadline passed while queued or solving",
            s.deadline_expired);
  w.counter("stale_refreshes_total",
            "Background refreshes enqueued after stale hits",
            s.stale_refreshes);
  w.counter("stale_refreshes_deduped_total",
            "Stale-hit refreshes suppressed by the in-flight token",
            s.stale_refreshes_deduped);
  w.counter("leader_abandoned_total",
            "Single-flight solves stopped after every rider walked away",
            s.leader_abandoned);

  w.counter("fragment_assisted_solves_total",
            "Cold solves pre-seeded from the shared SSSP fragment store",
            s.fragment_assisted);
  w.counter("fragment_hits_total", "Fragments borrowed into solves",
            s.fragment_hits);
  w.counter("fragment_misses_total",
            "Fragment borrow probes that found nothing", s.fragments.misses);
  w.counter("fragment_published_total",
            "Per-seed fragments published by finished solves",
            s.fragments.published);
  w.counter("fragment_evictions_total",
            "Fragments evicted by the memory budget", s.fragments.evictions);
  w.counter("fragment_retired_total", "Fragments purged by epoch retirement",
            s.fragments.retired);
  w.gauge("fragment_store_bytes", "Fragment store occupancy in bytes",
          s.fragments.bytes_in_use);
  w.gauge("fragment_store_entries", "Fragments currently stored",
          s.fragments.fragments);
  w.counter("preseeded_vertices_total",
            "Vertex labels adopted from fragments before relaxation",
            s.preseeded_vertices);
  w.counter("oracle_pruned_visitors_total",
            "Phase-1 visitors dropped by landmark upper bounds (the prune-rate "
            "numerator; divide by engine visitors)", s.oracle_pruned_visitors);
  w.counter("oracle_builds_total", "Landmark table (re)builds",
            s.oracle_builds);
  w.counter("net_solves_total",
            "Cold solves executed on the distributed comm_backend mesh",
            s.distributed_solves);
  w.counter("net_bytes_sent_total",
            "Measured wire bytes sent by distributed solves, all ranks "
            "(headers, markers and votes included)", s.net_bytes_sent);
  w.counter("net_bytes_modelled_total",
            "Perf-model payload-byte prediction for the same solves (records x "
            "record size, no framing)", s.net_bytes_modelled);
  w.counter("net_frames_sent_total",
            "Typed frames put on the mesh by distributed solves",
            s.net_frames_sent);
  w.counter("net_supersteps_total",
            "BSP supersteps executed by distributed solves (mesh-wide, not "
            "per-rank)", s.net_supersteps);
  w.counter("net_ghost_labels_total",
            "Boundary vertex labels synchronized between ranks",
            s.net_ghost_labels);
  w.counter("cluster_telemetry_samples_total",
            "Per-rank, per-superstep telemetry frames merged on rank 0",
            s.cluster_telemetry_samples);
  w.counter("cluster_supersteps_total",
            "Superstep groups attributed by the straggler report",
            s.cluster_supersteps);
  w.counter("cluster_straggler_supersteps_total",
            "Attributed supersteps whose max/median compute skew reached 2x",
            s.cluster_straggler_supersteps);
  priority_counter(w, "requests_admitted_total",
                   "Requests admitted, by priority class",
                   s.admitted_by_priority);
  priority_counter(w, "requests_shed_total",
                   "Requests shed (rejected, displaced or expired in queue), "
                   "by priority class",
                   s.shed_by_priority);

  w.counter("cache_lookup_hits_total", "Result-cache lookup hits",
            s.cache.hits);
  w.counter("cache_lookup_misses_total", "Result-cache lookup misses",
            s.cache.misses);
  w.counter("cache_insertions_total", "Result-cache insertions",
            s.cache.insertions);
  w.counter("cache_evictions_total", "Result-cache capacity evictions",
            s.cache.evictions);
  w.counter("cache_retired_total",
            "Result-cache entries purged by epoch retirement", s.cache.retired);
  w.gauge("cache_entries", "Result-cache occupancy", s.cache.entries);

  w.counter("executor_submitted_total", "Tasks admitted to the worker pool",
            s.exec.submitted);
  w.counter("executor_executed_total", "Tasks executed", s.exec.executed);
  w.counter("executor_rejected_total",
            "Tasks refused at admission with the queue full", s.exec.rejected);
  w.counter("executor_expired_total",
            "Queued tasks dropped past their deadline", s.exec.expired);
  w.counter("executor_displaced_total",
            "Queued tasks shed for higher-priority arrivals", s.exec.displaced);
  w.counter("executor_tasks_failed_total", "Tasks that let an exception escape",
            s.exec.tasks_failed);
  w.counter("executor_promoted_total",
            "Queued tasks moved up a priority level by aging", s.exec.promoted);
  w.counter("executor_queue_wait_seconds_total",
            "Cumulative queue wait of executed tasks",
            s.exec.total_queue_wait_seconds);
  w.counter("executor_exec_seconds_total",
            "Cumulative wall seconds spent running tasks",
            s.exec.total_exec_seconds);
  w.gauge("executor_queue_depth", "Tasks currently queued for a worker",
          s.exec.queue_depth);
  w.gauge("executor_peak_queue_depth", "Deepest admission queue observed",
          s.exec.peak_queue_depth);
  w.counter("slow_queries_total",
            "Queries retained in the slow-query log (threshold or SLO "
            "violation)", s.slow_queries);
  w.counter("sampled_traces_total",
            "Untraced queries promoted to a full trace by head sampling",
            s.sampled_traces);
  w.counter("slo_violations_total",
            "Completions past their priority class latency objective",
            s.slo_violations);
  w.counter("model_priced_admissions_total",
            "Admission estimates priced by the learned cost model",
            s.model_admissions);

  w.gauge("cost_model_samples",
          "Solves the admission cost model has trained on",
          snap.cost_model.samples);
  w.gauge("cost_model_ready", "1 once the learned model prices admissions",
          std::uint64_t{snap.cost_model.ready});
  w.gauge("cost_model_abs_error_ema_seconds",
          "EMA of the model's absolute training residual",
          snap.cost_model.abs_error_ema_seconds);

  append_slo_block(w, snap.slo);

  w.histogram("queue_wait_seconds", "Admission-to-pickup wait, all queries",
              snap.queue_wait);
  w.histogram("cold_solve_seconds", "Solver time on the cold path",
              snap.cold_solve);
  w.histogram("warm_solve_seconds", "Solver time on the warm-start path",
              snap.warm_solve);
  w.histogram("cache_hit_seconds", "End-to-end latency of cache hits",
              snap.cache_hit_total);
  w.histogram("query_seconds", "End-to-end latency, all paths", snap.total);
  w.histogram("modelled_solve_seconds",
              "Cost-model predicted solve time for executed solves",
              snap.modelled_solve);
  w.histogram("model_abs_error_seconds",
              "Absolute wall-vs-model solve-time residual",
              snap.model_abs_error);
  w.histogram("estimate_error_seconds",
              "Absolute end-to-end vs admission-estimate residual",
              snap.estimate_error);
  w.histogram("estimate_error_model_seconds",
              "Admission residual of the learned cost model (recorded only "
              "when the model priced the admission)",
              snap.estimate_error_model);
  w.histogram("estimate_error_baseline_seconds",
              "Admission residual the global-p50 baseline would have had on "
              "the same queries", snap.estimate_error_baseline);
  w.histogram("comm_bytes_modelled",
              "Perf-model predicted payload bytes per distributed superstep",
              snap.comm_bytes_modelled, 1e6);
  w.histogram("comm_bytes_measured",
              "Measured wire bytes per distributed superstep (always >= the "
              "modelled series; the gap is framing overhead)",
              snap.comm_bytes_measured, 1e6);
  w.histogram("cluster_superstep_seconds",
              "Wall seconds per rank per superstep (compute + send-flush + "
              "recv-wait)", snap.cluster_superstep_seconds);
  w.histogram("cluster_comm_wait_seconds",
              "Communication share of each rank-superstep sample (send-flush + "
              "recv-wait)", snap.cluster_comm_wait_seconds);
  return out;
}

std::string render_slo_text(const service_snapshot& snap,
                            std::string_view prefix) {
  std::string out;
  out.reserve(2048);
  obs::prom_writer w(out, prefix);
  append_slo_block(w, snap.slo);
  return out;
}

}  // namespace dsteiner::service

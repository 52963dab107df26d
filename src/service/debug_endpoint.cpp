#include "service/debug_endpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

#include "runtime/net/cluster_telemetry.hpp"
#include "service/metrics_text.hpp"

namespace dsteiner::service {

namespace {

void line(std::string& out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  out.append(buffer);
  out.push_back('\n');
}

}  // namespace

debug_endpoint::debug_endpoint(const steiner_service& service)
    : service_(service) {
  server_.add_route("/metrics", "text/plain; version=0.0.4",
                    [this](std::string_view) {
                      return render_metrics_text(service_.snapshot());
                    });
  server_.add_route("/statusz", "text/plain",
                    [this](std::string_view) { return render_statusz(); });
  server_.add_route("/tracez", "application/json",
                    [this](std::string_view query) {
                      return render_tracez(query);
                    });
  server_.add_route("/slo", "text/plain; version=0.0.4",
                    [this](std::string_view) {
                      return render_slo_text(service_.snapshot());
                    });
  server_.add_route("/clusterz", "application/json",
                    [this](std::string_view) { return render_clusterz(); });
}

std::string debug_endpoint::render_statusz() const {
  const service_snapshot snap = service_.snapshot();
  const service_stats& s = snap.stats;
  std::string out;
  out.reserve(2048);
  line(out, "dsteiner steiner_service status");
  line(out, "");
  line(out, "epoch: current=%" PRIu64 " first_live=%" PRIu64 " advances=%" PRIu64,
       service_.current_epoch(), service_.epochs().first_live_epoch(),
       s.epoch_advances);
  line(out, "queue: depth=%" PRIu64 " peak=%" PRIu64 " promoted=%" PRIu64,
       s.exec.queue_depth, s.exec.peak_queue_depth, s.exec.promoted);
  line(out,
       "queries: total=%" PRIu64 " cold=%" PRIu64 " warm=%" PRIu64
       " cache_hits=%" PRIu64 " stale=%" PRIu64 " coalesced=%" PRIu64,
       s.queries, s.cold_solves, s.warm_solves, s.cache_hits, s.stale_hits,
       s.coalesced);
  line(out,
       "qos: cancelled=%" PRIu64 " deadline_rejected=%" PRIu64
       " deadline_expired=%" PRIu64,
       s.cancelled, s.deadline_rejected, s.deadline_expired);
  line(out, "cache: entries=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64,
       s.cache.entries, s.cache.hits, s.cache.misses);
  line(out,
       "distshare: fragments=%" PRIu64 " bytes=%" PRIu64
       " assisted_solves=%" PRIu64 " oracle_builds=%" PRIu64,
       s.fragments.fragments, s.fragments.bytes_in_use, s.fragment_assisted,
       s.oracle_builds);
  line(out,
       "net: solves=%" PRIu64 " bytes_sent=%" PRIu64 " bytes_modelled=%" PRIu64
       " frames=%" PRIu64 " supersteps=%" PRIu64 " ghost_labels=%" PRIu64,
       s.distributed_solves, s.net_bytes_sent, s.net_bytes_modelled,
       s.net_frames_sent, s.net_supersteps, s.net_ghost_labels);
  line(out,
       "cluster: telemetry_samples=%" PRIu64 " supersteps=%" PRIu64
       " straggler_supersteps=%" PRIu64 " superstep_p50=%.6fs"
       " comm_wait_p50=%.6fs",
       s.cluster_telemetry_samples, s.cluster_supersteps,
       s.cluster_straggler_supersteps,
       snap.cluster_superstep_seconds.percentile(50.0),
       snap.cluster_comm_wait_seconds.percentile(50.0));
  line(out,
       "latency: p50=%.6fs p99=%.6fs mean=%.6fs samples=%" PRIu64,
       snap.total.percentile(50.0), snap.total.percentile(99.0),
       snap.total.mean(), snap.total.count);
  line(out,
       "model: solve_p50=%.6fs modelled_p50=%.6fs abs_err_p50=%.6fs",
       snap.cold_solve.percentile(50.0), snap.modelled_solve.percentile(50.0),
       snap.model_abs_error.percentile(50.0));
  line(out, "slow_queries: total=%" PRIu64 " retained=%zu", s.slow_queries,
       service_.slow_log().size());
  line(out,
       "tracing: sampled=%" PRIu64 " flight_recorder=%zu slo_violations=%"
       PRIu64,
       s.sampled_traces, service_.flight_recorder().size(), s.slo_violations);
  line(out,
       "cost_model: ready=%d samples=%" PRIu64 " abs_err_ema=%.6fs "
       "model_admissions=%" PRIu64,
       snap.cost_model.ready ? 1 : 0, snap.cost_model.samples,
       snap.cost_model.abs_error_ema_seconds, s.model_admissions);
  for (std::size_t i = 0; i < obs::query_features::k_dim; ++i) {
    line(out, "cost_model.w[%-12s] = %+.6g", obs::query_features::name(i),
         snap.cost_model.coefficients[i]);
  }
  line(out,
       "estimate_error: used_p50=%.6fs model_p50=%.6fs baseline_p50=%.6fs",
       snap.estimate_error.percentile(50.0),
       snap.estimate_error_model.percentile(50.0),
       snap.estimate_error_baseline.percentile(50.0));
  for (std::size_t p = 0; p < snap.slo.classes.size(); ++p) {
    const auto& c = snap.slo.classes[p];
    const char* name = p < k_priority_classes
                           ? to_string(static_cast<priority_class>(p))
                           : "other";
    line(out,
         "slo[%s]: objective=%.3fs good=%" PRIu64 " bad=%" PRIu64
         " burn_short=%.3f burn_long=%.3f",
         name, c.objective_seconds, c.good_total, c.bad_total,
         c.burn_rate_short, c.burn_rate_long);
  }
  return out;
}

std::string debug_endpoint::render_tracez(std::string_view query) const {
  // Slow/violating traces first (oldest first), then the head-sampled
  // flight recorder; ?limit=N keeps the newest N of the merged list.
  auto traces = service_.slow_log().snapshot();
  const auto sampled = service_.flight_recorder().snapshot();
  traces.insert(traces.end(), sampled.begin(), sampled.end());
  const std::uint64_t limit =
      obs::query_param_u64(query, "limit", traces.size());
  const std::size_t keep =
      static_cast<std::size_t>(std::min<std::uint64_t>(limit, traces.size()));
  const std::size_t first = traces.size() - keep;
  std::string out;
  out.reserve(1024);
  out.push_back('[');
  for (std::size_t i = first; i < traces.size(); ++i) {
    if (i != first) out.push_back(',');
    out.append(traces[i]->to_chrome_json());
  }
  out.push_back(']');
  return out;
}

std::string debug_endpoint::render_clusterz() const {
  const std::shared_ptr<const runtime::net::cluster_trace> trace =
      service_.cluster_trace_snapshot();
  if (trace == nullptr) {
    // No distributed solve has completed with telemetry on yet; world 0
    // distinguishes "nothing to report" from a real single-rank trace.
    return "{\"world\":0,\"samples\":0,\"supersteps\":0,\"critical_rank\":-1,"
           "\"critical_supersteps\":0,\"max_compute_skew\":0.000000,"
           "\"comm_wait_fraction\":0.000000,\"straggler_report\":[]}";
  }
  return runtime::net::render_cluster_json(*trace);
}

}  // namespace dsteiner::service

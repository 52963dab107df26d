#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace dsteiner::obs {
namespace {

/// Appends a Chrome trace_event "X" (complete) record. Timestamps/durations
/// are microseconds per the trace_event spec.
void append_complete(std::string& out, const char* name, const char* cat,
                     double start_seconds, double dur_seconds, int pid,
                     int tid, const char* args_json) {
  char buf[512];
  const double ts_us = start_seconds * 1e6;
  const double dur_us = std::max(dur_seconds, 0.0) * 1e6;
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s},",
                name, cat, pid, tid, ts_us, dur_us,
                args_json != nullptr ? args_json : "{}");
  out += buf;
}

/// pid of the synthetic "cluster" process that carries one track per rank of
/// a distributed solve (pid 1 is the service process).
constexpr int k_cluster_pid = 2;

/// Appends an instant ("i") event — distshare annotations.
void append_instant(std::string& out, const char* name, double at_seconds,
                    double value) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"distshare\",\"ph\":\"i\","
                "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"s\":\"p\","
                "\"args\":{\"value\":%.6g}},",
                name, at_seconds * 1e6, value);
  out += buf;
}

/// Appends a counter ("C") event — per-rank visitor/message/backlog tracks.
void append_counter(std::string& out, const char* name, double at_seconds,
                    std::uint32_t visitors, std::uint32_t sent,
                    std::uint32_t backlog) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                "\"args\":{\"visitors\":%u,\"sent\":%u,\"backlog\":%u}},",
                name, at_seconds * 1e6, visitors, sent, backlog);
  out += buf;
}

}  // namespace

query_trace::query_trace(const trace_config& cfg, std::size_t engine_lanes,
                         double pre_seconds)
    : origin_(std::chrono::steady_clock::now() -
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(std::max(pre_seconds, 0.0)))),
      cfg_(cfg),
      probe_(origin_, engine_lanes, cfg.samples_per_lane) {
  spans_.reserve(std::min<std::size_t>(cfg_.span_capacity, 32));
  events_.reserve(std::min<std::size_t>(cfg_.event_capacity, 32));
}

double query_trace::now_seconds() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void query_trace::add_span(span s) noexcept {
  if (spans_.size() >= cfg_.span_capacity) {
    ++dropped_;
    return;
  }
  spans_.push_back(s);
}

void query_trace::close_span(const char* name, const char* category,
                             double start_seconds, std::uint64_t supersteps,
                             std::uint64_t visitors, std::uint64_t messages,
                             double modelled_seconds) noexcept {
  span s;
  s.name = name;
  s.category = category;
  s.start_seconds = start_seconds;
  s.dur_seconds = std::max(now_seconds() - start_seconds, 0.0);
  s.supersteps = supersteps;
  s.visitors = visitors;
  s.messages = messages;
  s.modelled_seconds = modelled_seconds;
  add_span(s);
}

void query_trace::add_event(const char* name, double value) noexcept {
  if (events_.size() >= cfg_.event_capacity) {
    ++dropped_;
    return;
  }
  trace_event e;
  e.name = name;
  e.at_seconds = now_seconds();
  e.value = value;
  events_.push_back(e);
}

void query_trace::add_rank_slice(rank_slice s) noexcept {
  if (rank_slices_.size() >= cfg_.rank_slice_capacity) {
    ++dropped_;
    return;
  }
  rank_slices_.push_back(s);
}

void query_trace::set_cluster_summary(std::uint32_t world,
                                      std::uint64_t supersteps,
                                      std::int32_t critical_rank,
                                      std::uint64_t critical_supersteps,
                                      double max_compute_skew,
                                      double comm_wait_fraction) noexcept {
  summary_.cluster_world = world;
  summary_.cluster_supersteps = supersteps;
  summary_.cluster_critical_rank = critical_rank;
  summary_.cluster_critical_supersteps = critical_supersteps;
  summary_.cluster_max_compute_skew = max_compute_skew;
  summary_.cluster_comm_wait_fraction = comm_wait_fraction;
}

void query_trace::finalize(std::uint64_t request_id, std::uint64_t query_id,
                           double queue_wait_seconds, double solve_seconds,
                           double total_seconds,
                           double admission_estimate_seconds,
                           double modelled_seconds) noexcept {
  summary_.request_id = request_id;
  summary_.query_id = query_id;
  summary_.queue_wait_seconds = queue_wait_seconds;
  summary_.solve_seconds = solve_seconds;
  summary_.total_seconds = total_seconds;
  summary_.admission_estimate_seconds = admission_estimate_seconds;
  summary_.estimate_error_seconds =
      admission_estimate_seconds > 0.0
          ? total_seconds - admission_estimate_seconds
          : 0.0;
  summary_.modelled_seconds = modelled_seconds;
  summary_.model_error_seconds =
      modelled_seconds > 0.0 ? solve_seconds - modelled_seconds : 0.0;
  // Phase spans carry the per-phase engine totals; fold them up so the
  // summary answers "how many supersteps/messages did this query cost"
  // without walking the span list.
  summary_.supersteps = 0;
  summary_.visitors = 0;
  summary_.messages = 0;
  for (const auto& s : spans_) {
    summary_.supersteps += s.supersteps;
    summary_.visitors += s.visitors;
    summary_.messages += s.messages;
  }
  summary_.spans = spans_.size();
  summary_.samples = probe_.total_samples();
  summary_.dropped = dropped_ + probe_.dropped();
}

std::string query_trace::to_chrome_json() const {
  std::string out;
  out.reserve(4096 + probe_.total_samples() * 160 + spans_.size() * 200);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Thread naming metadata: tid 0 = service/phase spans, tid 1+w = workers.
  out +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"service\"}},";
  for (std::size_t w = 0; w < probe_.lanes(); ++w) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"engine worker %zu\"}},",
                  w + 1, w);
    out += buf;
  }

  for (const auto& s : spans_) {
    char args[256];
    std::snprintf(args, sizeof(args),
                  "{\"supersteps\":%" PRIu64 ",\"visitors\":%" PRIu64
                  ",\"messages\":%" PRIu64 ",\"modelled_seconds\":%.6g}",
                  s.supersteps, s.visitors, s.messages, s.modelled_seconds);
    append_complete(out, s.name, s.category, s.start_seconds, s.dur_seconds, 1,
                    0, args);
  }

  for (const auto& e : events_) {
    append_instant(out, e.name, e.at_seconds, e.value);
  }

  // Engine samples: aggregate rows (rank == -1) become per-worker
  // compute/barrier slices; per-rank rows become counter tracks keyed by
  // phase+rank so Perfetto draws one series per rank.
  for (std::size_t w = 0; w < probe_.lanes(); ++w) {
    for (const auto& s : probe_.lane_samples(w)) {
      if (s.rank < 0) {
        const double end = s.end_offset_seconds;
        const double barrier = s.barrier_wait_seconds;
        const double compute = s.compute_seconds;
        char args[256];
        std::snprintf(args, sizeof(args),
                      "{\"superstep\":%u,\"visitors\":%u,\"sent\":%u,"
                      "\"drained\":%u}",
                      s.superstep, s.visitors, s.sent, s.drained);
        // The sample is stamped at superstep end: compute ran first, then
        // the barrier wait. Lay the slices back-to-back ending at the stamp.
        append_complete(out, s.phase, "superstep",
                        end - barrier - compute, compute, 1,
                        static_cast<int>(w) + 1, args);
        if (barrier > 0.0F) {
          append_complete(out, "barrier_wait", "barrier", end - barrier,
                          barrier, 1, static_cast<int>(w) + 1, "{}");
        }
      } else {
        char name[64];
        std::snprintf(name, sizeof(name), "rank %d", s.rank);
        append_counter(out, name, s.end_offset_seconds, s.visitors, s.sent,
                       s.backlog);
      }
    }
  }

  // Cluster telemetry: one Perfetto track per rank of the distributed solve,
  // under a second synthetic process. Remote ranks' clocks cannot be aligned
  // with the trace origin, so each rank's compute/send/recv slices are
  // laid end to end from a per-rank cursor starting at 0 — honest about
  // relative durations and skew, silent about absolute offsets.
  if (!rank_slices_.empty()) {
    out +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
        "\"args\":{\"name\":\"cluster\"}},";
    std::int32_t max_rank = 0;
    for (const auto& s : rank_slices_) max_rank = std::max(max_rank, s.rank);
    for (std::int32_t r = 0; r <= max_rank; ++r) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,"
                    "\"tid\":%d,\"args\":{\"name\":\"rank %d\"}},",
                    r, r);
      out += buf;
    }
    std::vector<double> cursor(static_cast<std::size_t>(max_rank) + 1, 0.0);
    for (const auto& s : rank_slices_) {
      double& at = cursor[static_cast<std::size_t>(s.rank)];
      char args[256];
      std::snprintf(args, sizeof(args),
                    "{\"superstep\":%u,\"visitors\":%" PRIu64
                    ",\"bytes_sent\":%" PRIu64 "}",
                    s.superstep, s.visitors, s.bytes_sent);
      append_complete(out, s.phase, "rank_compute", at, s.compute_seconds,
                      k_cluster_pid, s.rank, args);
      at += s.compute_seconds;
      const struct {
        const char* name;
        double dur;
      } comm[] = {{"send_flush", s.send_flush_seconds},
                  {"recv_wait", s.recv_wait_seconds}};
      for (const auto& c : comm) {
        if (c.dur <= 0.0) continue;
        append_complete(out, c.name, "rank_comm", at, c.dur, k_cluster_pid,
                        s.rank, "{}");
        at += c.dur;
      }
    }
  }

  if (out.back() == ',') out.pop_back();
  out += "]}";
  return out;
}

}  // namespace dsteiner::obs

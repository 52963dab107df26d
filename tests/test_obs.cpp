// Tests for the observability layer (src/obs/ + its service wiring): the
// Prometheus exposition and its validator, the latency-histogram percentile
// estimator, query-scoped tracing (bit-identity contract, summaries, Chrome
// JSON, the slow-query log), the live debug endpoint, and executor priority
// aging.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/generators.hpp"
#include "obs/cost_model.hpp"
#include "obs/debug_server.hpp"
#include "obs/prom_text.hpp"
#include "obs/prom_validate.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "service/debug_endpoint.hpp"
#include "service/executor.hpp"
#include "service/latency_histogram.hpp"
#include "service/metrics_text.hpp"
#include "service/steiner_service.hpp"
#include "util/random.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::service;
using graph::vertex_id;
using graph::weight_t;

graph::csr_graph make_connected_graph(int n, weight_t w_hi, std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x99);
  graph::connect_components(list, w_hi + 1, seed);
  return graph::csr_graph(list);
}

query make_query(std::vector<vertex_id> seeds) {
  query q;
  q.seeds = std::move(seeds);
  return q;
}

service_config obs_config(std::size_t threads) {
  service_config config;
  config.exec.num_threads = threads;
  config.solver.num_ranks = 8;
  // Every query is "slow": the slow-query log captures each trace, so the
  // tests can inspect /tracez and the ring deterministically.
  config.trace.slow_query_threshold_seconds = 1e-9;
  return config;
}

/// Value of the series whose sample line starts with `name` followed by a
/// space or '{' (first match); -1.0 when the series is absent.
double series_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(name, 0) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ') continue;
    return std::stod(line.substr(name.size() + 1));
  }
  return -1.0;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Connects to the loopback debug server, sends `data` raw (no framing),
/// optionally half-closes the write side, and returns whatever the server
/// answers. Exercises the malformed-client paths http_get() cannot reach.
std::string raw_request(std::uint16_t port, const std::string& data,
                        bool shutdown_write) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }
  if (!data.empty()) (void)::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
  if (shutdown_write) ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// ---- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, PercentileInterpolatesWithinBucket) {
  latency_histogram hist;
  for (int i = 0; i < 100; ++i) hist.record(3e-6);  // bucket [2us, 4us)
  const auto snap = hist.snapshot();
  EXPECT_GE(snap.percentile(50.0), 2e-6);
  EXPECT_LE(snap.percentile(50.0), 4e-6);
  // Interpolation is monotone across the bucket.
  EXPECT_LT(snap.percentile(10.0), snap.percentile(90.0));
  EXPECT_DOUBLE_EQ(snap.percentile(50.0), snap.quantile(0.5));
  EXPECT_EQ(latency_histogram::snapshot_data{}.percentile(99.0), 0.0);
}

TEST(LatencyHistogram, PercentileSpansBuckets) {
  latency_histogram hist;
  for (int i = 0; i < 90; ++i) hist.record(3e-6);    // [2us, 4us)
  for (int i = 0; i < 10; ++i) hist.record(100e-6);  // [64us, 128us)
  const auto snap = hist.snapshot();
  EXPECT_LE(snap.percentile(50.0), 4e-6);
  EXPECT_GE(snap.percentile(99.0), 64e-6);
  EXPECT_LE(snap.percentile(99.0), 128e-6);
}

// ---- prometheus validator ---------------------------------------------------

TEST(PromValidate, AcceptsMinimalWellFormedExposition) {
  const std::string text =
      "# HELP app_requests_total Requests\n"
      "# TYPE app_requests_total counter\n"
      "app_requests_total 5\n"
      "# HELP app_depth Queue depth\n"
      "# TYPE app_depth gauge\n"
      "app_depth 2\n";
  const auto report = obs::validate_prometheus(text);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.series, 2u);
  EXPECT_EQ(report.families, 2u);
}

TEST(PromValidate, FlagsCounterWithoutTotalSuffix) {
  const auto report = obs::validate_prometheus(
      "# HELP app_requests Requests\n"
      "# TYPE app_requests counter\n"
      "app_requests 5\n");
  EXPECT_FALSE(report.ok());
}

TEST(PromValidate, FlagsDuplicateSeries) {
  const auto report = obs::validate_prometheus(
      "# HELP app_x_total X\n"
      "# TYPE app_x_total counter\n"
      "app_x_total 1\n"
      "app_x_total 2\n");
  EXPECT_FALSE(report.ok());
}

TEST(PromValidate, FlagsNonCumulativeHistogramBuckets) {
  const auto report = obs::validate_prometheus(
      "# HELP app_h H\n"
      "# TYPE app_h histogram\n"
      "app_h_bucket{le=\"1\"} 5\n"
      "app_h_bucket{le=\"2\"} 3\n"
      "app_h_bucket{le=\"+Inf\"} 3\n"
      "app_h_sum 4\n"
      "app_h_count 3\n");
  EXPECT_FALSE(report.ok());
}

TEST(PromValidate, FlagsMissingInfBucket) {
  const auto report = obs::validate_prometheus(
      "# HELP app_h H\n"
      "# TYPE app_h histogram\n"
      "app_h_bucket{le=\"1\"} 5\n"
      "app_h_sum 4\n"
      "app_h_count 5\n");
  EXPECT_FALSE(report.ok());
}

TEST(PromValidate, FlagsDuplicateHelpAndTypeDeclarations) {
  const auto dup_help = obs::validate_prometheus(
      "# HELP app_x_total X\n"
      "# HELP app_x_total X again\n"
      "# TYPE app_x_total counter\n"
      "app_x_total 1\n");
  EXPECT_FALSE(dup_help.ok());
  EXPECT_NE(dup_help.to_string().find("duplicate HELP"), std::string::npos);

  const auto dup_type = obs::validate_prometheus(
      "# HELP app_x_total X\n"
      "# TYPE app_x_total counter\n"
      "# TYPE app_x_total counter\n"
      "app_x_total 1\n");
  EXPECT_FALSE(dup_type.ok());
}

TEST(PromValidate, FlagsInterleavedFamilySamples) {
  // app_a_total's samples are split by an app_b_total sample — scrapers keep
  // only one contiguous run of a family, so this loses data silently.
  const auto report = obs::validate_prometheus(
      "# HELP app_a_total A\n"
      "# TYPE app_a_total counter\n"
      "# HELP app_b_total B\n"
      "# TYPE app_b_total counter\n"
      "app_a_total{k=\"1\"} 1\n"
      "app_b_total 2\n"
      "app_a_total{k=\"2\"} 3\n");
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("interleaved samples"), std::string::npos);
}

TEST(PromValidate, AcceptsContiguousMultiSampleFamilies) {
  // Label-varied samples of one family in one run — including histogram
  // machinery spanning _bucket/_sum/_count — are NOT interleaving.
  const auto report = obs::validate_prometheus(
      "# HELP app_a_total A\n"
      "# TYPE app_a_total counter\n"
      "app_a_total{k=\"1\"} 1\n"
      "app_a_total{k=\"2\"} 3\n"
      "# HELP app_h H\n"
      "# TYPE app_h histogram\n"
      "app_h_bucket{le=\"1\"} 2\n"
      "app_h_bucket{le=\"+Inf\"} 3\n"
      "app_h_sum 4\n"
      "app_h_count 3\n"
      "# HELP app_b_total B\n"
      "# TYPE app_b_total counter\n"
      "app_b_total 2\n");
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---- exposition writer ------------------------------------------------------

TEST(PromText, WritesOneHeaderPerFamilyAndScaledHistograms) {
  latency_histogram::snapshot_data hist;
  hist.buckets[0] = 2;
  hist.buckets[2] = 3;
  hist.total_seconds = 1.5e-5;
  std::string out;
  obs::prom_writer w(out, "app");
  w.counter("requests_total", "Requests", std::uint64_t{7});
  w.family("depth", obs::prom_type::gauge, "Depth")
      .sample(0.25, {{"queue", "a"}})
      .sample(std::uint64_t{3}, {{"queue", "b"}, {"zone", "z1"}});
  w.histogram("bytes", "Bytes", hist, 1e6);

  EXPECT_EQ(out.substr(0, out.find("app_bytes_bucket")),
            "# HELP app_requests_total Requests\n"
            "# TYPE app_requests_total counter\n"
            "app_requests_total 7\n"
            "# HELP app_depth Depth\n"
            "# TYPE app_depth gauge\n"
            "app_depth{queue=\"a\"} 0.25\n"
            "app_depth{queue=\"b\",zone=\"z1\"} 3\n"
            "# HELP app_bytes Bytes\n"
            "# TYPE app_bytes histogram\n");
  EXPECT_NE(out.find("app_bytes_bucket{le=\"2\"} 2\n"
                     "app_bytes_bucket{le=\"4\"} 2\n"
                     "app_bytes_bucket{le=\"8\"} 5\n"),
            std::string::npos);
  EXPECT_NE(out.find("app_bytes_bucket{le=\"+Inf\"} 5\n"
                     "app_bytes_sum 15\n"
                     "app_bytes_count 5\n"),
            std::string::npos);
  const auto report = obs::validate_prometheus(out);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.families, 3u);
}

// ---- service exposition -----------------------------------------------------

TEST(Metrics, ExpositionParsesCleanAndCountersAreMonotone) {
  steiner_service svc(make_connected_graph(200, 25, 41), obs_config(2));
  std::vector<vertex_id> seeds{3, 40, 90, 140};
  (void)svc.solve(request{make_query(seeds)});
  (void)svc.solve(request{make_query(seeds)});  // cache hit

  const std::string first = render_metrics_text(svc.snapshot());
  const auto report = obs::validate_prometheus(first);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.series, 50u);

  std::vector<vertex_id> more{5, 60, 110, 160, 190};
  (void)svc.solve(request{make_query(more)});
  const std::string second = render_metrics_text(svc.snapshot());
  const auto report2 = obs::validate_prometheus(second);
  EXPECT_TRUE(report2.ok()) << report2.to_string();

  // Counters must be monotone across scrapes and reflect the extra query.
  for (const char* name :
       {"dsteiner_queries_total", "dsteiner_cold_solves_total",
        "dsteiner_cache_hits_total", "dsteiner_executor_executed_total",
        "dsteiner_query_seconds_count"}) {
    const double a = series_value(first, name);
    const double b = series_value(second, name);
    ASSERT_GE(a, 0.0) << name << " missing from first scrape";
    ASSERT_GE(b, 0.0) << name << " missing from second scrape";
    EXPECT_GE(b, a) << name << " went backwards";
  }
  EXPECT_GT(series_value(second, "dsteiner_queries_total"),
            series_value(first, "dsteiner_queries_total"));
  // The model histograms landed (a cold solve records all three when an
  // admission estimate exists, two otherwise).
  EXPECT_GE(series_value(second, "dsteiner_modelled_solve_seconds_count"), 1.0);
  EXPECT_GE(series_value(second, "dsteiner_model_abs_error_seconds_count"),
            1.0);
}

/// A hand-filled snapshot for the golden exposition test: every counter
/// distinct and non-zero, a few populated histograms (one of them a scaled
/// comm_bytes_* series), and every SLO class.
service_snapshot golden_snapshot() {
  std::uint64_t next = 1000;
  const auto v = [&next] { return next += 7; };
  service_snapshot snap;
  service_stats& s = snap.stats;
  const auto fill_counters = [&v](std::initializer_list<std::uint64_t*> fields) {
    for (std::uint64_t* field : fields) *field = v();
  };
  fill_counters(
      {&s.queries, &s.cold_solves, &s.warm_solves, &s.edge_warm_solves,
       &s.warm_fallbacks, &s.cache_hits, &s.stale_hits, &s.coalesced,
       &s.epoch_advances, &s.cancelled, &s.deadline_rejected,
       &s.deadline_expired, &s.stale_refreshes, &s.stale_refreshes_deduped,
       &s.leader_abandoned, &s.slow_queries, &s.sampled_traces,
       &s.slo_violations, &s.model_admissions});
  // Six retired counters took the next six values; skipping them keeps every
  // later line of the golden files unchanged.
  next += 6 * 7;
  fill_counters(
      {&s.distributed_solves, &s.net_bytes_sent, &s.net_bytes_modelled,
       &s.net_frames_sent, &s.net_supersteps});
  // The retired vote-round counter took the next value.
  next += 7;
  fill_counters(
      {&s.net_ghost_labels, &s.cluster_telemetry_samples,
       &s.cluster_supersteps, &s.cluster_straggler_supersteps,
       &s.fragment_assisted, &s.fragment_hits, &s.preseeded_vertices,
       &s.oracle_pruned_visitors, &s.oracle_builds});
  // The retired bound-sharpening counter took the next value.
  next += 7;
  fill_counters(
      {&s.cache.hits, &s.cache.misses, &s.cache.insertions,
       &s.cache.evictions, &s.cache.retired, &s.exec.submitted,
       &s.exec.rejected, &s.exec.executed, &s.exec.tasks_failed,
       &s.exec.expired, &s.exec.displaced, &s.exec.promoted,
       &s.exec.peak_queue_depth, &s.exec.queue_depth, &s.fragments.published,
       &s.fragments.refreshed, &s.fragments.hits, &s.fragments.misses,
       &s.fragments.evictions, &s.fragments.retired,
       &s.fragments.bytes_in_use, &snap.cost_model.samples});
  s.cache.entries = v();
  s.fragments.fragments = v();
  for (std::size_t p = 0; p < k_priority_classes; ++p) {
    s.admitted_by_priority[p] = v();
    s.shed_by_priority[p] = v();
  }
  s.exec.total_queue_wait_seconds = 12.625;
  s.exec.max_queue_wait_seconds = 0.75;
  s.exec.total_exec_seconds = 3.0517578125e-5;

  snap.cost_model.enabled = true;
  snap.cost_model.ready = true;
  snap.cost_model.abs_error_ema_seconds = 0.0123456789;

  snap.slo.enabled = true;
  snap.slo.error_budget = 0.001;
  snap.slo.short_window_seconds = 60.0;
  snap.slo.long_window_seconds = 3600.0;
  for (std::size_t p = 0; p < k_priority_classes; ++p) {
    obs::slo_class_snapshot c;
    c.objective_seconds = 0.05 * static_cast<double>(p + 1);
    c.good_total = v();
    c.bad_total = v();
    c.short_good = v();
    c.short_bad = v();
    c.long_good = v();
    c.long_bad = v();
    c.burn_rate_short = 0.5 + static_cast<double>(p);
    c.burn_rate_long = 1.0 / 3.0 + static_cast<double>(p);
    snap.slo.classes.push_back(c);
  }

  const auto fill = [&v](latency_histogram::snapshot_data& h,
                         std::initializer_list<std::size_t> buckets,
                         double total_seconds) {
    for (const std::size_t b : buckets) {
      h.buckets[b] = v();
      h.count += h.buckets[b];
    }
    h.total_seconds = total_seconds;
  };
  fill(snap.queue_wait, {0, 3, 9}, 0.0421875);
  fill(snap.cold_solve, {12, 14, 15}, 7.25);
  fill(snap.total, {1, 12, 31}, 91.5);
  fill(snap.comm_bytes_measured, {4, 10}, 0.003125);
  return snap;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(DSTEINER_TEST_GOLDEN_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Byte-for-byte comparison against tests/golden/<name>; on mismatch reports
/// the first differing line and leaves the actual text next to gtest's temp
/// directory for diffing.
void expect_golden(const std::string& actual, const std::string& name) {
  const std::string expected = read_golden(name);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << name;
  if (actual == expected) return;
  const std::string actual_path = ::testing::TempDir() + name + ".actual";
  std::ofstream(actual_path) << actual;
  std::istringstream a(actual);
  std::istringstream e(expected);
  std::string la;
  std::string le;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_e = static_cast<bool>(std::getline(e, le));
    if (!more_a && !more_e) break;
    if (more_a != more_e || la != le) {
      ADD_FAILURE() << name << " differs at line " << line << "\n  expected: "
                    << (more_e ? le : "<eof>")
                    << "\n  actual:   " << (more_a ? la : "<eof>")
                    << "\n  full output: " << actual_path;
      return;
    }
  }
  ADD_FAILURE() << name << " differs (trailing bytes); full output: "
                << actual_path;
}

TEST(Metrics, GoldenExpositionIsByteStable) {
  const service_snapshot snap = golden_snapshot();
  const std::string metrics = render_metrics_text(snap);
  const std::string slo = render_slo_text(snap);
  const auto report = obs::validate_prometheus(metrics);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(obs::validate_prometheus(slo).ok());
  expect_golden(metrics, "service_metrics.prom");
  expect_golden(slo, "service_slo.prom");
}

// ---- tracing ----------------------------------------------------------------

TEST(Tracing, TracedAndUntracedSolvesAreBitIdentical) {
  const auto g = make_connected_graph(250, 25, 42);
  const std::vector<vertex_id> seeds{4, 60, 120, 200, 240};
  core::solver_config solver;
  solver.num_ranks = 8;

  const auto plain = core::solve_steiner_tree(g, seeds, solver);

  obs::trace_config cfg;
  obs::query_trace trace(cfg, 1);
  core::solver_config traced_config = solver;
  traced_config.trace = &trace;
  const auto traced = core::solve_steiner_tree(g, seeds, traced_config);

  EXPECT_EQ(plain.tree_edges, traced.tree_edges);
  EXPECT_EQ(plain.total_distance, traced.total_distance);
  // Simulated metrics are part of the determinism contract too.
  EXPECT_EQ(plain.phases.total().sim_units, traced.phases.total().sim_units);
  EXPECT_GT(trace.probe().total_samples(), 0u);
}

TEST(Tracing, ThreadedEngineBitIdenticalAndSampled) {
  const auto g = make_connected_graph(300, 25, 43);
  const std::vector<vertex_id> seeds{7, 80, 150, 220, 280};
  core::solver_config solver;
  solver.num_ranks = 8;
  solver.mode = runtime::execution_mode::parallel_threads;
  solver.num_threads = 4;

  const auto plain = core::solve_steiner_tree(g, seeds, solver);

  obs::trace_config cfg;
  obs::query_trace trace(cfg, solver.num_threads);
  core::solver_config traced_config = solver;
  traced_config.trace = &trace;
  const auto traced = core::solve_steiner_tree(g, seeds, traced_config);

  EXPECT_EQ(plain.tree_edges, traced.tree_edges);
  EXPECT_EQ(plain.total_distance, traced.total_distance);
  EXPECT_GT(trace.probe().total_samples(), 0u);
  // Every worker lane saw at least one superstep of the solve.
  for (std::size_t lane = 0; lane < trace.probe().lanes(); ++lane) {
    EXPECT_FALSE(trace.probe().lane_samples(lane).empty()) << "lane " << lane;
  }
}

TEST(Tracing, ServiceHandleExposesTraceAndSlowLogCaptures) {
  const auto g = make_connected_graph(200, 25, 44);
  steiner_service svc(graph::csr_graph(g), obs_config(1));

  // Warm-up solve: the admission estimator is history-based (cold-solve p50),
  // so the traced request below gets a non-zero completion estimate.
  (void)svc.solve(request{make_query({7, 60, 110, 170})});

  request r;
  r.q.seeds = {3, 50, 100, 150};
  query_handle h = svc.submit(r);
  const query_result out = h.get();

  ASSERT_NE(out.trace, nullptr);
  ASSERT_NE(h.trace(), nullptr);
  const auto summary = h.trace_summary();
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->request_id, h.id());
  EXPECT_EQ(summary->query_id, out.query_id);
  EXPECT_GT(summary->total_seconds, 0.0);
  EXPECT_GT(summary->supersteps, 0u);
  EXPECT_GT(summary->visitors, 0u);
  // admission + queue_wait + six solver phases.
  EXPECT_GE(summary->spans, 8u);
  EXPECT_GT(summary->samples, 0u);
  // Tracing was on with an estimate computed at admission.
  EXPECT_GT(summary->admission_estimate_seconds, 0.0);

  const std::string json = out.trace->to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("Voronoi Cell"), std::string::npos);
  EXPECT_NE(json.find("queue_wait"), std::string::npos);

  // threshold = 1ns: the solve must have landed in the slow-query log.
  EXPECT_GE(svc.slow_log().size(), 1u);
  EXPECT_GE(svc.stats().slow_queries, 1u);
}

TEST(Tracing, DisabledTracingYieldsNoTraceAndIdenticalTrees) {
  const auto g = make_connected_graph(200, 25, 45);
  const std::vector<vertex_id> seeds{3, 50, 100, 150};

  service_config on = obs_config(1);
  service_config off = obs_config(1);
  off.trace.enabled = false;
  // Head sampling is a separate always-on knob (and deterministically
  // samples the first execution) — zero it to turn observation fully off.
  off.trace.sample_rate = 0.0;

  steiner_service svc_on(graph::csr_graph(g), on);
  steiner_service svc_off(graph::csr_graph(g), off);
  const query_result a = svc_on.solve(request{make_query(seeds)});
  const query_result b = svc_off.solve(request{make_query(seeds)});

  EXPECT_NE(a.trace, nullptr);
  EXPECT_EQ(b.trace, nullptr);
  EXPECT_EQ(a.result.tree_edges, b.result.tree_edges);
  EXPECT_EQ(a.result.total_distance, b.result.total_distance);
  EXPECT_EQ(svc_off.slow_log().size(), 0u);
}

// ---- debug endpoint ---------------------------------------------------------

TEST(DebugEndpoint, ServesMetricsStatuszAndTracez) {
  const auto g = make_connected_graph(200, 25, 46);
  steiner_service svc(graph::csr_graph(g), obs_config(1));
  (void)svc.solve(request{make_query({3, 50, 100, 150})});

  debug_endpoint endpoint(svc);
  ASSERT_TRUE(endpoint.start());
  ASSERT_TRUE(endpoint.running());
  ASSERT_NE(endpoint.port(), 0);

  const std::string metrics =
      obs::http_body(obs::http_get(endpoint.port(), "/metrics"));
  ASSERT_FALSE(metrics.empty());
  const auto report = obs::validate_prometheus(metrics);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(series_value(metrics, "dsteiner_queries_total"), 0.0);

  const std::string statusz =
      obs::http_body(obs::http_get(endpoint.port(), "/statusz"));
  EXPECT_NE(statusz.find("queries:"), std::string::npos);
  EXPECT_NE(statusz.find("epoch:"), std::string::npos);
  EXPECT_NE(statusz.find("slow_queries:"), std::string::npos);

  const std::string tracez =
      obs::http_body(obs::http_get(endpoint.port(), "/tracez"));
  ASSERT_FALSE(tracez.empty());
  EXPECT_EQ(tracez.front(), '[');
  EXPECT_EQ(tracez.back(), ']');
  // The slow log captured the solve (1ns threshold), so /tracez carries at
  // least one Chrome trace object.
  EXPECT_NE(tracez.find("\"traceEvents\""), std::string::npos);

  const std::string missing = obs::http_get(endpoint.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  // Only routed requests count as served — the 404 above does not.
  EXPECT_GE(endpoint.server().requests_served(), 3u);
  endpoint.stop();
  EXPECT_FALSE(endpoint.running());
}

TEST(DebugEndpoint, ScrapesConcurrentWithQueries) {
  const auto g = make_connected_graph(250, 25, 47);
  steiner_service svc(graph::csr_graph(g), obs_config(2));
  debug_endpoint endpoint(svc);
  ASSERT_TRUE(endpoint.start());

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes_ok{0};
  std::atomic<int> scrapes_done{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      const std::string body =
          obs::http_body(obs::http_get(endpoint.port(), "/metrics"));
      if (!body.empty() && obs::validate_prometheus(body).ok()) ++scrapes_ok;
      ++scrapes_done;
    }
  });
  // At least 12 queries, and more until a scrape has completed, so the
  // scraper always races live queries however fast they solve.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (std::uint64_t i = 0; i < 12 || scrapes_done.load() == 0; ++i) {
    if (std::chrono::steady_clock::now() > deadline) break;
    query q;
    q.seeds = {static_cast<vertex_id>(3 + i % 40), 50, 100,
               static_cast<vertex_id>(150 + i % 40)};
    (void)svc.solve(request{std::move(q)});
  }
  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes_done.load(), 0) << "no scrape completed within 10 s";
  EXPECT_EQ(scrapes_ok.load(), scrapes_done.load());
}

// ---- cluster observability plane --------------------------------------------

TEST(ClusterTelemetry, DistributedSolveFeedsClusterzTraceAndMetrics) {
  const auto g = make_connected_graph(250, 25, 52);
  service_config config = obs_config(1);
  config.distributed.world = 2;
  steiner_service svc(graph::csr_graph(g), config);
  debug_endpoint endpoint(svc);
  ASSERT_TRUE(endpoint.start());

  // Before any distributed solve: the route answers with the empty document.
  const std::string empty_doc =
      obs::http_body(obs::http_get(endpoint.port(), "/clusterz"));
  EXPECT_NE(empty_doc.find("\"world\":0"), std::string::npos);

  const query_result result = svc.solve(request{make_query({3, 50, 100, 150})});
  ASSERT_NE(result.trace, nullptr);

  // The straggler digest landed in the trace summary...
  const obs::trace_summary& summary = result.trace->summary();
  EXPECT_EQ(summary.cluster_world, 2u);
  EXPECT_GT(summary.cluster_supersteps, 0u);
  EXPECT_GE(summary.cluster_critical_rank, 0);
  EXPECT_GE(summary.cluster_max_compute_skew, 1.0);
  EXPECT_GT(summary.cluster_comm_wait_fraction, 0.0);
  EXPECT_LE(summary.cluster_comm_wait_fraction, 1.0);

  // ...and the Chrome export carries one track per rank under the synthetic
  // cluster process next to the service-side spans.
  EXPECT_FALSE(result.trace->rank_slices().empty());
  const std::string chrome = result.trace->to_chrome_json();
  EXPECT_NE(chrome.find("\"name\":\"cluster\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"rank 0\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"rank 1\""), std::string::npos);
  EXPECT_NE(chrome.find("rank_compute"), std::string::npos);

  // /clusterz now serves the merged straggler report.
  const std::string clusterz =
      obs::http_body(obs::http_get(endpoint.port(), "/clusterz"));
  EXPECT_NE(clusterz.find("\"world\":2"), std::string::npos);
  EXPECT_NE(clusterz.find("\"straggler_report\":["), std::string::npos);
  EXPECT_NE(clusterz.find("\"critical_rank\""), std::string::npos);

  // /statusz has the cluster line; /metrics carries the new families and
  // still parses clean.
  const std::string statusz =
      obs::http_body(obs::http_get(endpoint.port(), "/statusz"));
  EXPECT_NE(statusz.find("cluster: telemetry_samples="), std::string::npos);
  const std::string metrics =
      obs::http_body(obs::http_get(endpoint.port(), "/metrics"));
  EXPECT_TRUE(obs::validate_prometheus(metrics).ok());
  EXPECT_GT(series_value(metrics, "dsteiner_cluster_telemetry_samples_total"),
            0.0);
  EXPECT_GT(series_value(metrics, "dsteiner_cluster_supersteps_total"), 0.0);
  EXPECT_GE(series_value(metrics,
                         "dsteiner_cluster_straggler_supersteps_total"),
            0.0);

  const auto snap = svc.snapshot();
  EXPECT_EQ(snap.cluster_superstep_seconds.count,
            snap.stats.cluster_telemetry_samples);
  EXPECT_EQ(snap.cluster_comm_wait_seconds.count,
            snap.stats.cluster_telemetry_samples);
}

// ---- executor priority aging ------------------------------------------------

TEST(Executor, AgingPromotesStarvedBackgroundTask) {
  executor_config config;
  config.num_threads = 1;
  config.queue_capacity = 512;
  config.aging_step_seconds = 0.005;
  executor exec(config);

  std::atomic<bool> background_ran{false};
  std::atomic<int> interactive_left{400};

  // A self-sustaining stream of interactive tasks: each one takes ~1ms and
  // re-posts itself, so under strict priority the background task below
  // would wait for the whole stream. Aging must pull it forward.
  executor::task interactive = [&](double) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (background_ran.load() || interactive_left.fetch_sub(1) <= 0) return;
    executor::task_options opts;
    opts.priority = 0;
    EXPECT_TRUE(exec.try_post(
        [&](double wait) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (background_ran.load() || interactive_left.fetch_sub(1) <= 0) {
            return;
          }
          executor::task_options again;
          again.priority = 0;
          EXPECT_TRUE(exec.try_post(
              [&](double) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                (void)wait;
              },
              again));
        },
        opts));
  };

  {
    executor::task_options opts;
    opts.priority = 0;
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(exec.try_post(interactive, opts));
  }
  {
    executor::task_options opts;
    opts.priority = 2;  // background
    ASSERT_TRUE(
        exec.try_post([&](double) { background_ran.store(true); }, opts));
  }

  for (int spin = 0; spin < 4000 && !background_ran.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(background_ran.load());
  EXPECT_GE(exec.stats().promoted, 1u);
}

TEST(Executor, NoAgingKeepsStrictPriorityAndCountsNothing) {
  executor_config config;
  config.num_threads = 1;
  config.queue_capacity = 64;
  executor exec(config);  // aging_step_seconds == 0: historical behaviour
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    executor::task_options opts;
    opts.priority = static_cast<std::size_t>(i % 3);
    ASSERT_TRUE(exec.try_post([&](double) { ++ran; }, opts));
  }
  while (ran.load() < 10) std::this_thread::yield();
  EXPECT_EQ(exec.stats().promoted, 0u);
}

TEST(Executor, StatsReportLiveQueueDepth) {
  executor_config config;
  config.num_threads = 1;
  config.queue_capacity = 64;
  executor exec(config);
  std::atomic<bool> release{false};
  ASSERT_TRUE(exec.try_post([&](double) {
    while (!release.load()) std::this_thread::yield();
  }));
  ASSERT_TRUE(exec.try_post([](double) {}));
  ASSERT_TRUE(exec.try_post([](double) {}));
  // The blocker occupies the worker; two tasks wait in the queue.
  for (int spin = 0; spin < 2000 && exec.stats().queue_depth < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(exec.stats().queue_depth, 2u);
  release.store(true);
}

// ---- latency histogram windows ----------------------------------------------

TEST(LatencyHistogram, ResetWindowDrainsExactlyOnce) {
  latency_histogram hist;
  hist.record(1e-3);
  hist.record(1e-3);
  hist.record(2e-3);
  const auto w1 = hist.reset_window();
  EXPECT_EQ(w1.count, 3u);
  EXPECT_GT(w1.total_seconds, 0.0);
  // Drained: the live histogram starts a fresh window.
  EXPECT_EQ(hist.snapshot().count, 0u);
  hist.record(5e-3);
  const auto w2 = hist.reset_window();
  EXPECT_EQ(w2.count, 1u);

  // Windows recompose without double counting.
  latency_histogram::snapshot_data acc{};
  acc.accumulate(w1);
  acc.accumulate(w2);
  EXPECT_EQ(acc.count, 4u);
  EXPECT_GT(acc.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, AllZeroBucketWindowHasFinitePercentiles) {
  // A windowed snapshot can carry a count with no bucket mass (e.g. a
  // snapshot raced between the bucket and count updates, or an accumulate
  // of empty windows with a stale count). Percentiles must degrade to 0.
  latency_histogram::snapshot_data z{};
  z.count = 7;
  EXPECT_EQ(z.percentile(50.0), 0.0);
  EXPECT_FALSE(std::isnan(z.percentile(99.0)));
  EXPECT_FALSE(std::isnan(z.quantile(0.999)));
}

// ---- cost model -------------------------------------------------------------

TEST(CostModel, DisabledOrEmptyPredictsZero) {
  obs::query_features f;
  f.x[obs::query_features::k_bias] = 1.0;
  f.x[obs::query_features::k_seeds] = 8.0;

  obs::cost_model_config off;
  off.enabled = false;
  obs::cost_model disabled(off);
  disabled.observe(f, 1.0);
  EXPECT_EQ(disabled.predict_seconds(f), 0.0);
  EXPECT_FALSE(disabled.ready());

  obs::cost_model empty;
  EXPECT_EQ(empty.predict_seconds(f), 0.0);
  EXPECT_FALSE(empty.ready());

  // Non-finite and negative targets must not poison the coefficients.
  empty.observe(f, std::numeric_limits<double>::quiet_NaN());
  empty.observe(f, -1.0);
  EXPECT_EQ(empty.snapshot().samples, 0u);
}

TEST(CostModel, RlsConvergesAndBeatsGlobalP50Baseline) {
  // Synthetic workload with the admission estimator's real failure mode:
  // per-query cost varies ~5x with |S|, which a global p50 cannot express.
  // The model sees the analytic features and must fit the curve online.
  obs::cost_model model;
  const double counts[] = {4.0, 8.0, 12.0, 16.0, 20.0};
  std::vector<double> history, model_err, baseline_err;
  for (int i = 0; i < 120; ++i) {
    const double s = counts[i % 5];
    obs::query_features f;
    f.x[obs::query_features::k_bias] = 1.0;
    f.x[obs::query_features::k_seeds] = s;
    f.x[obs::query_features::k_seeds_sq] = s * s;
    f.x[obs::query_features::k_log_vertices] = 10.0;  // fixed graph
    f.x[obs::query_features::k_log_arcs] = 11.5;
    f.x[obs::query_features::k_seeds_log_n] = s * 10.0;
    f.x[obs::query_features::k_inv_threads] = 1.0;
    const double y = 0.01 + 0.002 * s + 0.0001 * s * s;
    if (model.ready()) {
      // Online evaluation: predict before this sample trains the model,
      // against the global-p50-so-far baseline on the same query.
      model_err.push_back(std::abs(model.predict_seconds(f) - y));
      baseline_err.push_back(std::abs(median(history) - y));
    }
    model.observe(f, y);
    history.push_back(y);
  }
  ASSERT_FALSE(model_err.empty());
  EXPECT_LT(median(model_err), median(baseline_err));

  const auto snap = model.snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_TRUE(snap.ready);
  EXPECT_EQ(snap.samples, 120u);
  EXPECT_LT(snap.abs_error_ema_seconds, 0.01);
}

TEST(CostModel, KeepsLearningOnOneGraphAndFollowsACostShift) {
  // One graph on the sequential engine: bias and inv_threads are both 1, the
  // graph-size features are constant and most others are always 0. Those
  // directions are never excited, so forgetting inflates them every step
  // until x'Px cancels; the model must recover instead of freezing.
  using qf = obs::query_features;
  const auto features = [](double s) {
    qf f;
    f.x[qf::k_bias] = 1.0;
    f.x[qf::k_seeds] = s;
    f.x[qf::k_log_vertices] = 15.0;
    f.x[qf::k_log_arcs] = 20.0;
    f.x[qf::k_seeds_log_n] = s * 15.0;
    f.x[qf::k_seeds_sq] = s * s;
    f.x[qf::k_inv_threads] = 1.0;
    return f;
  };
  const auto cost = [](double s) { return 0.005 + 0.0005 * s; };
  const double counts[] = {8.0, 16.0, 32.0};
  obs::cost_model model;
  for (int i = 0; i < 20000; ++i) {
    const double s = counts[i % 3];
    model.observe(features(s), cost(s));
  }
  EXPECT_EQ(model.snapshot().samples, 20000u);
  for (int i = 0; i < 3000; ++i) {
    const double s = counts[i % 3];
    model.observe(features(s), 10.0 * cost(s));
  }
  EXPECT_EQ(model.snapshot().samples, 23000u);
  for (const double s : counts) {
    const double truth = 10.0 * cost(s);
    EXPECT_NEAR(model.predict_seconds(features(s)), truth, 0.1 * truth)
        << "|S| = " << s;
  }
}

// ---- SLO tracker ------------------------------------------------------------

TEST(Slo, BurnRateWindowsRotateAndExpire) {
  obs::slo_config cfg;
  cfg.objective_seconds = {1.0};
  cfg.error_budget = 0.1;  // short 60s / long 600s / 60 buckets of 10s
  obs::slo_tracker tracker(1, cfg);
  EXPECT_TRUE(tracker.violates(0, 2.0));
  EXPECT_FALSE(tracker.violates(0, 0.5));

  tracker.record_at(0, 0.5, 5.0);  // good
  tracker.record_at(0, 2.0, 5.0);  // bad

  const auto s1 = tracker.snapshot_at(5.0);
  ASSERT_EQ(s1.classes.size(), 1u);
  EXPECT_EQ(s1.classes[0].good_total, 1u);
  EXPECT_EQ(s1.classes[0].bad_total, 1u);
  EXPECT_EQ(s1.classes[0].short_good, 1u);
  EXPECT_EQ(s1.classes[0].short_bad, 1u);
  // bad ratio 0.5 against a 0.1 budget: burning 5x sustainable.
  EXPECT_DOUBLE_EQ(s1.classes[0].burn_rate_short, 5.0);
  EXPECT_DOUBLE_EQ(s1.classes[0].burn_rate_long, 5.0);
  EXPECT_EQ(s1.classes[0].window_latency.count, 2u);

  // 95s later: outside the short window, still inside the long one.
  const auto s2 = tracker.snapshot_at(100.0);
  EXPECT_EQ(s2.classes[0].short_good + s2.classes[0].short_bad, 0u);
  EXPECT_DOUBLE_EQ(s2.classes[0].burn_rate_short, 0.0);
  EXPECT_EQ(s2.classes[0].long_good, 1u);
  EXPECT_EQ(s2.classes[0].long_bad, 1u);
  EXPECT_DOUBLE_EQ(s2.classes[0].burn_rate_long, 5.0);

  // Past the long window: the ring expired the events; lifetime totals stay.
  const auto s3 = tracker.snapshot_at(700.0);
  EXPECT_EQ(s3.classes[0].long_good + s3.classes[0].long_bad, 0u);
  EXPECT_DOUBLE_EQ(s3.classes[0].burn_rate_long, 0.0);
  EXPECT_EQ(s3.classes[0].good_total, 1u);
  EXPECT_EQ(s3.classes[0].bad_total, 1u);

  obs::slo_config off = cfg;
  off.enabled = false;
  obs::slo_tracker disabled(1, off);
  disabled.record_at(0, 5.0, 1.0);
  EXPECT_FALSE(disabled.violates(0, 5.0));
  EXPECT_EQ(disabled.snapshot_at(1.0).classes[0].bad_total, 0u);
}

TEST(Slo, ViolationIsForceRetainedInSlowLog) {
  const auto g = make_connected_graph(200, 25, 48);
  service_config config = obs_config(1);
  // Far above any solve time: the slow threshold alone would retain nothing.
  config.trace.slow_query_threshold_seconds = 1e9;
  config.trace.sample_rate = 0.0;
  // Zero-latency objective for every class: each completion violates.
  config.slo.objective_seconds = {0.0};
  steiner_service svc(graph::csr_graph(g), config);
  (void)svc.solve(request{make_query({3, 50, 100, 150})});

  EXPECT_GE(svc.stats().slo_violations, 1u);
  EXPECT_GE(svc.stats().slow_queries, 1u);
  EXPECT_GE(svc.slow_log().size(), 1u);
  const auto snap = svc.snapshot();
  ASSERT_FALSE(snap.slo.classes.empty());
  std::uint64_t bad = 0;
  for (const auto& c : snap.slo.classes) bad += c.bad_total;
  EXPECT_GE(bad, 1u);
}

// ---- head sampling ----------------------------------------------------------

TEST(Sampling, HeadSamplingRateIsExact) {
  const auto g = make_connected_graph(220, 25, 49);
  service_config config = obs_config(1);
  config.trace.enabled = false;           // only sampling can create traces
  config.trace.sample_rate = 0.25;        // every 4th execution
  config.trace.slow_query_threshold_seconds = 1e9;
  config.slo.enabled = false;             // nothing force-retained
  steiner_service svc(graph::csr_graph(g), config);

  for (std::uint64_t i = 0; i < 8; ++i) {
    query q;
    q.seeds = {static_cast<vertex_id>(5 + i), 60, 120,
               static_cast<vertex_id>(160 + i)};
    (void)svc.solve(request{std::move(q)});
  }
  // Deterministic modulo sampling: executions 0 and 4 of 8.
  EXPECT_EQ(svc.stats().sampled_traces, 2u);
  EXPECT_EQ(svc.flight_recorder().size(), 2u);
  EXPECT_EQ(svc.slow_log().size(), 0u);
}

TEST(Sampling, SampledSolveBitIdenticalToUntracedBothEngines) {
  const auto g = make_connected_graph(300, 25, 50);
  const std::vector<vertex_id> seeds{7, 80, 150, 220, 280};
  for (const bool threaded : {false, true}) {
    service_config sampled_cfg = obs_config(1);
    sampled_cfg.trace.enabled = false;
    sampled_cfg.trace.sample_rate = 1.0;  // every query head-sampled
    sampled_cfg.trace.slow_query_threshold_seconds = 1e9;
    service_config plain_cfg = sampled_cfg;
    plain_cfg.trace.sample_rate = 0.0;    // never sampled
    if (threaded) {
      for (auto* c : {&sampled_cfg, &plain_cfg}) {
        c->solver.mode = runtime::execution_mode::parallel_threads;
        c->solver.num_threads = 4;
      }
    }
    steiner_service svc_sampled(graph::csr_graph(g), sampled_cfg);
    steiner_service svc_plain(graph::csr_graph(g), plain_cfg);
    const query_result a = svc_sampled.solve(request{make_query(seeds)});
    const query_result b = svc_plain.solve(request{make_query(seeds)});

    EXPECT_NE(a.trace, nullptr) << "threaded=" << threaded;
    EXPECT_EQ(b.trace, nullptr) << "threaded=" << threaded;
    EXPECT_EQ(a.result.tree_edges, b.result.tree_edges)
        << "threaded=" << threaded;
    EXPECT_EQ(a.result.total_distance, b.result.total_distance)
        << "threaded=" << threaded;
    EXPECT_EQ(a.result.phases.total().sim_units,
              b.result.phases.total().sim_units)
        << "threaded=" << threaded;
  }
}

// ---- debug endpoint: query params, /slo, robustness -------------------------

TEST(DebugServer, QueryParamParsing) {
  EXPECT_EQ(obs::query_param("limit=5&mode=full", "mode"), "full");
  EXPECT_EQ(obs::query_param("limit=5&mode=full", "limit"), "5");
  EXPECT_EQ(obs::query_param("limit=5", "missing"), "");
  EXPECT_EQ(obs::query_param("", "limit"), "");
  EXPECT_EQ(obs::query_param_u64("limit=12", "limit", 99), 12u);
  EXPECT_EQ(obs::query_param_u64("limit=abc", "limit", 99), 99u);
  EXPECT_EQ(obs::query_param_u64("", "limit", 99), 99u);
  EXPECT_EQ(obs::query_param_u64("limit=-1", "limit", 99), 99u);
  EXPECT_EQ(obs::query_param_u64("limit=99999999999999999999", "limit", 99),
            99u);
  EXPECT_EQ(obs::query_param_u64("limit=+7", "limit", 99), 99u);
  EXPECT_EQ(obs::query_param_u64("limit= 7", "limit", 99), 99u);
}

TEST(DebugEndpoint, TracezHonorsLimitAndSloRouteServesBurnRates) {
  const auto g = make_connected_graph(200, 25, 51);
  steiner_service svc(graph::csr_graph(g), obs_config(1));
  for (std::uint64_t i = 0; i < 3; ++i) {
    query q;
    q.seeds = {static_cast<vertex_id>(3 + i), 50, 100,
               static_cast<vertex_id>(140 + i)};
    (void)svc.solve(request{std::move(q)});
  }
  debug_endpoint endpoint(svc);
  ASSERT_TRUE(endpoint.start());

  const std::string all =
      obs::http_body(obs::http_get(endpoint.port(), "/tracez"));
  EXPECT_GE(count_occurrences(all, "\"traceEvents\""), 3u);
  const std::string one =
      obs::http_body(obs::http_get(endpoint.port(), "/tracez?limit=1"));
  EXPECT_EQ(count_occurrences(one, "\"traceEvents\""), 1u);
  // A malformed limit falls back to "everything".
  const std::string junk =
      obs::http_body(obs::http_get(endpoint.port(), "/tracez?limit=bogus"));
  EXPECT_EQ(count_occurrences(junk, "\"traceEvents\""),
            count_occurrences(all, "\"traceEvents\""));

  const std::string slo = obs::http_body(obs::http_get(endpoint.port(), "/slo"));
  ASSERT_FALSE(slo.empty());
  const auto report = obs::validate_prometheus(slo);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_NE(slo.find("dsteiner_slo_burn_rate{priority="), std::string::npos);
  EXPECT_NE(slo.find("window=\"short\""), std::string::npos);
  EXPECT_NE(slo.find("window=\"long\""), std::string::npos);

  // /statusz grew cost-model and burn-rate rows.
  const std::string statusz =
      obs::http_body(obs::http_get(endpoint.port(), "/statusz"));
  EXPECT_NE(statusz.find("cost_model:"), std::string::npos);
  EXPECT_NE(statusz.find("cost_model.w["), std::string::npos);
  EXPECT_NE(statusz.find("slo["), std::string::npos);

  // /metrics carries the new families alongside the old ones.
  const std::string metrics =
      obs::http_body(obs::http_get(endpoint.port(), "/metrics"));
  EXPECT_TRUE(obs::validate_prometheus(metrics).ok());
  EXPECT_GE(series_value(metrics, "dsteiner_cost_model_samples"), 1.0);
  EXPECT_GE(series_value(metrics, "dsteiner_sampled_traces_total"), 0.0);
  EXPECT_GE(series_value(metrics, "dsteiner_slo_violations_total"), 0.0);
  EXPECT_NE(metrics.find("dsteiner_estimate_error_model_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(metrics.find("dsteiner_estimate_error_baseline_seconds_bucket"),
            std::string::npos);
}

TEST(DebugServer, OversizedRequestLineGets404) {
  obs::debug_server server;
  server.add_route("/ping", "text/plain",
                   [](std::string_view) { return std::string("pong"); });
  ASSERT_TRUE(server.start());
  // 8 KiB with no CRLF overflows the 4 KiB request buffer.
  const std::string response =
      raw_request(server.port(), std::string(8192, 'A'), true);
  EXPECT_NE(response.find("404"), std::string::npos);
  EXPECT_NE(response.find("request line too long"), std::string::npos);
  // The server survives and still answers well-formed requests.
  EXPECT_EQ(obs::http_body(obs::http_get(server.port(), "/ping")), "pong");
  server.stop();
}

TEST(DebugServer, PartialAndStalledRequestsGet400) {
  obs::debug_server server;
  server.add_route("/ping", "text/plain",
                   [](std::string_view) { return std::string("pong"); });
  server.set_read_timeout_ms(100);  // keep the stalled case fast
  ASSERT_TRUE(server.start());

  // Half-close after a partial request line: disconnect-before-CRLF.
  const std::string partial = raw_request(server.port(), "GET /pi", true);
  EXPECT_NE(partial.find("400"), std::string::npos);
  EXPECT_NE(partial.find("incomplete request"), std::string::npos);

  // Stalled client: stays connected, never completes the line; the read
  // deadline must answer instead of wedging the accept loop.
  const std::string stalled = raw_request(server.port(), "GET /pi", false);
  EXPECT_NE(stalled.find("400"), std::string::npos);

  EXPECT_EQ(obs::http_body(obs::http_get(server.port(), "/ping")), "pong");
  server.stop();
}

/// Status code of an HTTP/1.0 response whose body is exactly Content-Length
/// bytes long, or 0 when the response is malformed (or empty).
int well_formed_status(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 ", 0) != 0 || head_end == std::string::npos) {
    return 0;
  }
  const std::string length_key = "\r\nContent-Length: ";
  const std::size_t at = response.find(length_key);
  if (at == std::string::npos || at > head_end) return 0;
  const std::size_t length = std::strtoull(
      response.c_str() + at + length_key.size(), nullptr, 10);
  if (response.size() - (head_end + 4) != length) return 0;
  return std::atoi(response.c_str() + 9);
}

TEST(DebugServer, MutatedRequestsGetOnlyWellFormedAnswers) {
  obs::debug_server server;
  server.add_route("/ping", "text/plain",
                   [](std::string_view) { return std::string("pong"); });
  // Echoes what the query parsers make of the query string.
  server.add_route("/q", "text/plain", [](std::string_view query) {
    return obs::query_param(query, "mode") + ":" +
           std::to_string(obs::query_param_u64(query, "limit", 7)) + "\n";
  });
  server.set_read_timeout_ms(100);  // a request that loses its CRLF waits
  ASSERT_TRUE(server.start());

  const std::vector<std::string> valid{
      "GET /ping HTTP/1.0\r\n\r\n",
      "GET /q?limit=5&mode=full HTTP/1.0\r\n\r\n",
      "GET /q?mode=&limit=18446744073709551615&&=x HTTP/1.0\r\n\r\n",
  };
  // Bytes the request-line and query parsers split on, plus NUL.
  const std::string special("?&= \r\n%+-\0", 11);
  util::rng gen(0xD5E7);
  constexpr int k_iterations = 150;
  std::size_t answered[3] = {0, 0, 0};  // 200, 400, 404
  for (const std::string& request : valid) {
    ASSERT_EQ(well_formed_status(raw_request(server.port(), request, true)),
              200)
        << request;
    for (int i = 0; i < k_iterations; ++i) {
      std::string bytes = request;
      switch (gen.uniform(0, 3)) {
        case 0:  // truncate
          bytes.resize(gen.uniform(0, bytes.size() - 1));
          break;
        case 1:  // extend
          for (std::uint64_t k = gen.uniform(1, 40); k > 0; --k) {
            bytes.push_back(static_cast<char>(gen.uniform(0, 255)));
          }
          break;
        case 2:  // splice separators into the request line
          for (std::uint64_t k = gen.uniform(1, 4); k > 0; --k) {
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                             gen.uniform(0, bytes.size())),
                         special[gen.uniform(0, special.size() - 1)]);
          }
          break;
        default:  // flip 1-4 bytes
          for (std::uint64_t k = gen.uniform(1, 4); k > 0; --k) {
            bytes[gen.uniform(0, bytes.size() - 1)] ^=
                static_cast<char>(gen.uniform(1, 255));
          }
      }
      const std::string response = raw_request(server.port(), bytes, true);
      const int status = well_formed_status(response);
      const std::string what = "mutation " + std::to_string(i) + " of " +
                               request.substr(0, request.find(' ', 4));
      if (status == 200) {
        ++answered[0];
        const std::string body = obs::http_body(response);
        EXPECT_TRUE(body == "pong" ||
                    (body.find(':') != std::string::npos &&
                     body.back() == '\n'))
            << what << ": " << body;
      } else if (status == 400 || status == 404) {
        ++answered[status == 400 ? 1 : 2];
      } else {
        ADD_FAILURE() << what << ": " << response;
      }
    }
  }
  // The mutations reach every answer, and the server keeps serving.
  EXPECT_GT(answered[0], 0u);
  EXPECT_GT(answered[1], 0u);
  EXPECT_GT(answered[2], 0u);
  EXPECT_EQ(obs::http_body(obs::http_get(server.port(), "/ping")), "pong");
  EXPECT_EQ(obs::http_body(obs::http_get(server.port(), "/q?limit=5&mode=full")),
            "full:5\n");
  server.stop();
}

}  // namespace

// bench_net_traffic — modelled-vs-measured wire traffic of the distributed
// runtime (src/runtime/net/), the serving-path counterpart of the
// dsteiner-rank launcher's --metrics-text output.
//
// Runs a steiner_service with config.distributed.world ranks (the loopback
// comm_backend mesh — same frames, codecs and termination votes as the TCP
// backend, minus the kernel) over a set of cold queries on the LVJ mirror,
// then checks the perf model's traffic prediction against what the mesh
// actually carried:
//
//   1. measured >= modelled for every solve — the model counts payload
//      records x record size and deliberately excludes framing, so real wire
//      bytes can only add to it;
//   2. the gap stays inside a per-frame overhead band: every frame costs a
//      fixed header plus (for control frames: markers, votes, hellos) a
//      small fixed payload, so measured - modelled <= frames x 64 bytes;
//   3. the /metrics exposition carries the paired
//      dsteiner_comm_bytes_{modelled,measured} histograms with equal sample
//      counts and parses clean under the Prometheus validator;
//   4. the telemetry plane is cheap: re-running the same queries with
//      config.solver.net_telemetry off must not be dramatically faster —
//      telemetry-on wall clock stays within 5% (plus an absolute slack for
//      CI timer noise) of telemetry-off.
//
// Exit status reflects all four checks, so CI's bench-smoke can gate on it.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/prom_validate.hpp"
#include "service/metrics_text.hpp"
#include "service/steiner_service.hpp"

int main(int argc, char** argv) {
  using namespace dsteiner;
  bench::flag_parser parser(argc, argv);
  const std::size_t world = parser.positive_uint("--world", 2);
  const std::size_t queries = parser.positive_uint("--queries", 6);
  parser.finish();
  if (world < 2) {
    // A 1-rank world takes the classic in-process path and moves no bytes,
    // so every traffic assertion below would fail confusingly.
    std::fprintf(stderr, "--world must be >= 2 (got %zu)\n", world);
    return 2;
  }

  bench::print_header(
      "Distributed runtime: modelled vs measured wire traffic",
      "the runtime/net extension (beyond the paper's simulated ranks)",
      "Each query is a cold solve across loopback comm_backend ranks; the\n"
      "perf model's byte prediction is checked against measured wire bytes.");

  const auto ds = io::load_dataset("LVJ");
  service::service_config svc_config;
  svc_config.exec.num_threads = 2;
  svc_config.solver.num_ranks = 8;
  svc_config.distributed.world = static_cast<int>(world);
  service::steiner_service svc(graph::csr_graph(ds.graph), svc_config);
  std::printf("world=%zu ranks (loopback mesh), %zu cold queries on %s\n\n",
              world, queries, ds.spec.paper_name.c_str());

  util::table table({"query", "|S|", "modelled", "measured", "overhead",
                     "supersteps", "wall"});
  bool ok = true;
  double telemetry_on_wall = 0.0;
  std::uint64_t prev_modelled = 0;
  std::uint64_t prev_measured = 0;
  std::uint64_t prev_frames = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    service::query q;
    // Distinct seed counts defeat the result cache: every row is a real
    // distributed solve.
    q.seeds = bench::default_seeds(ds.graph, 8 + 4 * i);
    util::timer wall;
    const auto result = svc.solve(service::request{q});
    const double wall_seconds = wall.seconds();
    telemetry_on_wall += wall_seconds;
    if (result.kind != service::solve_kind::cold) {
      std::fprintf(stderr, "query %zu was not a cold solve\n", i);
      ok = false;
    }
    const auto stats = svc.stats();
    const std::uint64_t modelled = stats.net_bytes_modelled - prev_modelled;
    const std::uint64_t measured = stats.net_bytes_sent - prev_measured;
    const std::uint64_t frames = stats.net_frames_sent - prev_frames;
    prev_modelled = stats.net_bytes_modelled;
    prev_measured = stats.net_bytes_sent;
    prev_frames = stats.net_frames_sent;

    if (modelled == 0 || measured < modelled) {
      std::fprintf(stderr,
                   "query %zu: measured %llu < modelled %llu (or zero)\n", i,
                   static_cast<unsigned long long>(measured),
                   static_cast<unsigned long long>(modelled));
      ok = false;
    }
    // Generous framing band: 8-byte headers on every frame plus small
    // control payloads (votes, markers, hellos) stay far under 64 bytes per
    // frame on average.
    if (measured > modelled + frames * 64) {
      std::fprintf(stderr,
                   "query %zu: framing overhead %llu exceeds %llu frames x "
                   "64B band\n",
                   i, static_cast<unsigned long long>(measured - modelled),
                   static_cast<unsigned long long>(frames));
      ok = false;
    }
    table.add_row(
        {std::to_string(i), std::to_string(q.seeds.size()),
         util::format_bytes(modelled), util::format_bytes(measured),
         util::format_fixed(
             modelled == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(measured - modelled) /
                       static_cast<double>(modelled),
             1) + "%",
         std::to_string(stats.net_supersteps),
         util::format_duration(wall_seconds)});
  }
  std::printf("%s\n", table.render().c_str());

  const auto snap = svc.snapshot();
  if (snap.stats.cluster_telemetry_samples == 0 ||
      snap.cluster_superstep_seconds.count !=
          snap.stats.cluster_telemetry_samples) {
    std::fprintf(
        stderr,
        "cluster telemetry missing or out of step: %llu samples counted, "
        "%llu histogram records\n",
        static_cast<unsigned long long>(snap.stats.cluster_telemetry_samples),
        static_cast<unsigned long long>(snap.cluster_superstep_seconds.count));
    ok = false;
  }
  if (snap.comm_bytes_measured.count == 0 ||
      snap.comm_bytes_measured.count != snap.comm_bytes_modelled.count) {
    std::fprintf(stderr,
                 "paired histograms out of step: measured %llu samples, "
                 "modelled %llu\n",
                 static_cast<unsigned long long>(snap.comm_bytes_measured.count),
                 static_cast<unsigned long long>(snap.comm_bytes_modelled.count));
    ok = false;
  }
  const std::string metrics = service::render_metrics_text(snap);
  const obs::prom_report report = obs::validate_prometheus(metrics);
  if (!report.ok()) {
    std::fprintf(stderr, "metrics exposition invalid:\n%s\n",
                 report.to_string().c_str());
    ok = false;
  }
  std::printf(
      "totals: modelled=%s measured=%s supersteps=%llu ghost_labels=%llu\n",
      util::format_bytes(snap.stats.net_bytes_modelled).c_str(),
      util::format_bytes(snap.stats.net_bytes_sent).c_str(),
      static_cast<unsigned long long>(snap.stats.net_supersteps),
      static_cast<unsigned long long>(snap.stats.net_ghost_labels));
  std::printf("exposition: %zu series across %zu families, %s\n",
              report.series, report.families,
              report.ok() ? "valid" : "INVALID");

  // Telemetry overhead: re-run the identical query set on a fresh service
  // with the telemetry plane off and compare wall clocks. The 5% relative
  // band is the contract; the 0.5s absolute slack keeps sub-second runs from
  // failing on scheduler noise rather than real overhead.
  {
    service::service_config off_config = svc_config;
    off_config.solver.net_telemetry = false;
    service::steiner_service off_svc(graph::csr_graph(ds.graph), off_config);
    double telemetry_off_wall = 0.0;
    for (std::size_t i = 0; i < queries; ++i) {
      service::query q;
      q.seeds = bench::default_seeds(ds.graph, 8 + 4 * i);
      util::timer wall;
      (void)off_svc.solve(service::request{q});
      telemetry_off_wall += wall.seconds();
    }
    std::printf("telemetry overhead: on=%s off=%s (%+.1f%%)\n",
                util::format_duration(telemetry_on_wall).c_str(),
                util::format_duration(telemetry_off_wall).c_str(),
                telemetry_off_wall > 0.0
                    ? 100.0 * (telemetry_on_wall - telemetry_off_wall) /
                          telemetry_off_wall
                    : 0.0);
    if (telemetry_on_wall > telemetry_off_wall * 1.05 + 0.5) {
      std::fprintf(stderr,
                   "telemetry overhead out of band: on=%.3fs off=%.3fs\n",
                   telemetry_on_wall, telemetry_off_wall);
      ok = false;
    }
  }
  std::printf("\n%s\n",
              ok ? "OK: perf model within the framing band, telemetry "
                   "overhead within 5%"
                 : "FAILED: see stderr");
  return ok ? 0 : 1;
}

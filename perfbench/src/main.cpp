// perfbench — the repository's end-to-end benchmark binary.
//
//   perfbench --workload cold-solo|dist-tcp|service-mixed --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--git-sha SHA]
//
// Runs one workload through the library's public API, checks every output
// tree against a cooperative-engine reference, and prints a BENCH_RECORD line
// (environment, tail details, self times) followed by the result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status is 0 only when every query succeeded and matched.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "cold-solo|dist-tcp|service-mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--git-sha SHA]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || ptr != text.data() + text.size()) {
    usage(std::string(flag) + " expects an unsigned integer, got '" + text +
          "'");
  }
  return value;
}

options parse(int argc, char** argv) {
  options opt;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(value, "--seed");
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_u64(value, "--seconds");
      if (s == 0 || s > 600) usage("--seconds must be in [1, 600]");
      opt.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--git-sha") {
      opt.git_sha = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!have_seconds) usage("--seconds is required");
  return opt;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  tracer t(opt.trace);

  run_output out;
  try {
    if (opt.workload == "cold-solo") {
      out = run_cold_solo(opt, t);
    } else if (opt.workload == "dist-tcp") {
      out = run_dist_tcp(opt, t);
    } else if (opt.workload == "service-mixed") {
      out = run_service_mixed(opt, t);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());

  // Every result record carries its environment: a core count is a property
  // of the machine, not a scaling claim.
  std::string env = "{\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                    ",\"git_sha\":" + json_string(opt.git_sha) +
                    ",\"workload_seed\":" + std::to_string(opt.seed) +
                    ",\"seconds\":" + json_number(opt.seconds);
  for (const auto& [key, value] : out.env) {
    env += "," + json_string(key) + ":" + json_string(value);
  }
  env += "}";

  const auto& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = out.metrics.find(defs[i].name);
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    if (i > 0) metrics += ", ";
    metrics += json_string(defs[i].name) + ": {\"value\": " +
               json_number(value) + ", \"unit\": " + json_string(defs[i].unit) +
               "}";
  }
  metrics += "}";

  std::string self_times = "{";
  if (opt.trace) {
    std::printf("self time by layer (traced passes and set-up):\n");
    bool first = true;
    for (const auto& [layer, seconds] : t.self_seconds_by_layer()) {
      std::printf("  %-10s %10.4f s\n", layer.c_str(), seconds);
      self_times += std::string(first ? "" : ",") + json_string(layer) + ":" +
                    json_number(seconds);
      first = false;
    }
    if (!opt.trace_out.empty()) {
      t.write_chrome_json(opt.trace_out);
      std::printf("chrome trace: %s (%zu spans)\n", opt.trace_out.c_str(),
                  t.size());
    }
  }
  self_times += "}";

  const double failed_ratio =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  if (out.query_tail.windows == 0) {
    std::printf("query tail: p%.2f over %zu samples (10 samples beyond it)\n",
                out.query_tail.percentile, out.query_tail.samples);
  } else {
    std::printf("query tail: median over %zu windows of each window's p%.2f "
                "(%zu samples)\n",
                out.query_tail.windows, out.query_tail.percentile,
                out.query_tail.samples);
  }
  std::printf(
      "failed_ratio: %s (%llu of %llu queries)\n",
      json_number(failed_ratio).c_str(),
      static_cast<unsigned long long>(out.failed),
      static_cast<unsigned long long>(out.attempted));
  std::printf(
      "BENCH_RECORD {\"workload\":%s,\"trace\":%d,\"env\":%s,"
      "\"query_tail\":{\"percentile\":%s,\"samples\":%zu,\"windows\":%zu},"
      "\"failed_ratio\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"self_seconds\":%s,\"metrics\":%s}\n",
      json_string(opt.workload).c_str(), opt.trace ? 1 : 0, env.c_str(),
      json_number(out.query_tail.percentile).c_str(), out.query_tail.samples,
      out.query_tail.windows,
      json_number(failed_ratio).c_str(),
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), self_times.c_str(),
      metrics.c_str());

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// perfbench: the end-to-end benchmark of the batch system.
//
//   perfbench --workload replay_swf|esp_dynamic|svc_durable --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload for about S seconds on inputs made from the seed,
// checks the library's outputs, and prints two JSON lines on stdout: the
// host and sample counts, then the result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates traced and untraced work items and reports the
// per-layer ones. Spans of the first traced item are written to
// DIR/<workload>.spans.tsv. See perfbench/README.md.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

int usage() {
  std::cerr << "usage: perfbench --workload replay_swf|esp_dynamic|"
               "svc_durable --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n";
  return 2;
}

/// JSON string escaping for the few characters a metric name or compiler
/// banner could contain.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  Outcome outcome;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "replay_swf") {
      outcome = perfbench::run_replay_swf(options);
    } else if (options.workload == "esp_dynamic") {
      outcome = perfbench::run_esp_dynamic(options);
    } else if (options.workload == "svc_durable") {
      outcome = perfbench::run_svc_durable(options);
    } else {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "{\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
            << ", \"compiler_version\": " << quoted(__VERSION__)
            << ", \"cmake_build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << "}, \"workload\": " << quoted(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"info\": " << metrics_json(outcome.info) << "}\n";
  std::cout << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << metrics_json(outcome.metrics) << "}"
            << std::endl;
  return 0;
}

// swfgen: emit a deterministic synthetic SWF trace on stdout (or to a
// file), for bench scales and CI parity checks against tools/gen_swf.py.
//
//   swfgen --jobs N [--seed S] [--max-procs P] [--users U]
//          [--mean-interarrival SEC] [--min-run SEC] [--run-spread SEC]
//          [--out FILE]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_number.hpp"
#include "workload/swf/swf_gen.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: swfgen [--jobs N] [--seed S] [--max-procs P] [--users U]\n"
         "              [--mean-interarrival SEC] [--min-run SEC]\n"
         "              [--run-spread SEC] [--out FILE]\n";
}

}  // namespace

int main(int argc, char** argv) {
  dbs::wl::swf::SwfGenParams params;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      dbs::cli::parse_into(params.jobs, arg, next());
    } else if (arg == "--seed") {
      dbs::cli::parse_into(params.seed, arg, next());
    } else if (arg == "--max-procs") {
      dbs::cli::parse_into(params.max_procs, arg, next());
    } else if (arg == "--users") {
      dbs::cli::parse_into(params.users, arg, next());
    } else if (arg == "--mean-interarrival") {
      dbs::cli::parse_into(params.mean_interarrival_s, arg, next());
    } else if (arg == "--min-run") {
      dbs::cli::parse_into(params.min_run_s, arg, next());
    } else if (arg == "--run-spread") {
      dbs::cli::parse_into(params.run_spread_s, arg, next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (params.users == 0 || params.mean_interarrival_s == 0 ||
      params.run_spread_s == 0) {
    std::cerr << "--users, --mean-interarrival and --run-spread must be >= 1\n";
    return 2;
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    dbs::wl::swf::generate_swf(out, params);
    return out.good() ? 0 : 1;
  }
  dbs::wl::swf::generate_swf(std::cout, params);
  return 0;
}

/// \file main.cpp
/// The repository benchmark. Usage:
///
///   perfbench --workload <paper-offline|serve-recurring|fleet-churn>
///             --seed <n> --seconds <s> --trace <0|1> [--spans <csv path>]
///
/// Prints a human-readable report, then one JSON line with the run's
/// metrics: the end-to-end set when untraced, the per-layer set when
/// traced. Exits nonzero when any output check fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper-offline|serve-recurring|"
               "fleet-churn> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");

  perfbench::trace::enable(options.trace);
  perfbench::Report report;
  try {
    if (options.workload == "paper-offline") {
      perfbench::run_offline(options, report);
    } else if (options.workload == "serve-recurring") {
      perfbench::run_serve(options, report);
    } else if (options.workload == "fleet-churn") {
      perfbench::run_fleet(options, report);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.metric("rss_mb", perfbench::peak_rss_mb(), "MiB", true);
  report.print(options);
  return report.correct() ? 0 : 1;
}

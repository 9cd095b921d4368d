// perfbench_runner: one workload, one run, one JSON result line.
//
//   perfbench_runner --workload serve_chatty --seed 3 --seconds 25 --trace 0
//       --trace-dir .bench_build/perfbench/traces
//
// --trace 0 runs the timed closed loop and reports the end-to-end metrics;
// --trace 1 replays the same seed's ops one at a time under spans and
// reports the per-layer metrics (and writes <trace-dir>/<workload>.trace.json).
// Log lines come first; the last line of stdout is the result object.
// Exit code 0 means the run completed (its outputs may still have failed
// their checks: see "correct"); anything else means no result.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "serve_chatty|serve_bulk|sweep_far --seed N --seconds S --trace 0|1 "
               "--trace-dir DIR\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 120)) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.trace && args.trace_dir.empty()) usage("--trace 1 needs --trace-dir");

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  for (const auto& line : res.log) std::printf("# %s\n", line.c_str());
  std::string metrics;
  for (const auto& m : res.metrics) {
    std::printf("# %-28s %s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
               "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              res.correct && res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return 0;
}

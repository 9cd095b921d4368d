#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/spec.h"

/// \file workloads.h
/// The three workloads. Each runs in one of two modes:
///   * timed (trace off): set up, drive the closed loop for `seconds`, then
///     check every output; yields the end-to-end metrics;
///   * traced: replay the same seed's ops one at a time through each
///     layer's public entry point under spans; yields the per-layer metrics
///     and a Chrome trace-event file.

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes <workload>.trace.json
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> log;  ///< human-readable lines printed before the result
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] RunResult run_workload(const RunArgs& args);

/// The spec of a serve workload's op `i`: a pure function of (workload, seed,
/// i), so that no two ops of a run share an input and the traced run
/// replays the timed run's ops. Exposed for the benchmark's tests.
[[nodiscard]] tft::service::SessionSpec op_spec(const std::string& workload, std::uint64_t seed,
                                                std::size_t i);

/// The warm-up session set-up sends for spec shape `shape`. It does not
/// depend on the workload seed, so that set-up does the same work in every
/// run.
[[nodiscard]] tft::service::SessionSpec warmup_spec(const std::string& workload,
                                                    std::size_t shape);

}  // namespace perfbench

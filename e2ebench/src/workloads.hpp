#pragma once
// The benchmark's workloads.  Each runs in its own process, drives the
// program only through its public API, checks every output outside the
// timed region, and returns its metrics by name.

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics of an untraced run.  true: per-layer
  /// metrics of a traced run (the same run, then a timed serial replay).
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< jobs, or native episodes checked
  std::uint64_t failed = 0;     ///< of those, how many failed a check
  std::vector<Metric> metrics;

  /// Record @p jobs failures with the reason (printed to stderr).
  void fail(std::uint64_t jobs, const std::string& why);
};

const std::vector<std::string>& workload_names();

/// Run one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace e2e

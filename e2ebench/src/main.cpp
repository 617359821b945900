// e2ebench: run one workload and print its result as one JSON line.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: sweep-cold, svc-warm, svc-paced, native-epcc.  Progress and
// check failures go to stderr; stdout ends with
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the run completed (even if a check failed: the result
// line says so), 2 on bad arguments or an exception.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1>\nworkloads:";
  for (const std::string& w : e2e::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opts.seconds > 0.0) ||
          opts.seconds > 60.0)
        return usage("--seconds must be in (0, 60]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      opts.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  e2e::RunResult result;
  try {
    result = e2e::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << '\n';
    return 2;
  }

  std::string metrics;
  for (const e2e::Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}

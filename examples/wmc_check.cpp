// wmc_check — run the weak-memory model checker over the shipped barrier
// headers, instantiated on the checker's atomics policy.
//
//   wmc_check --list                     enumerate checked configurations
//   wmc_check --algo sense               check one configuration
//   wmc_check --all                      check every configuration
//   wmc_check --mutation-suite           seeded-weakening sensitivity run
//   wmc_check --algo mcs --mutate mcs.wake_set   one specific weakening
//
// Options: --threads N, --episodes N override the row's reduced
// geometry; --budget N caps DFS executions; --seed N seeds the
// random-walk fallback; --no-sleep-sets disables the partial-order
// reduction (for cross-validation).
//
// Exit status: 0 when every requested check has the expected outcome
// (clean runs find no violation; mutation runs find at least one), 1
// otherwise, 2 on usage errors.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "armbar/wmc/check.hpp"

namespace {

void print_result(const std::string& label, const armbar::wmc::Result& r) {
  std::cout << label << ": " << (r.ok() ? "OK" : "VIOLATION") << "  ["
            << (r.exhaustive ? "exhaustive" : "budgeted") << ", "
            << r.executions << " executions, " << r.branch_points
            << " branch points, " << r.sleep_pruned << " sleep-pruned]\n";
  for (const armbar::wmc::Violation& v : r.violations) {
    std::cout << "  " << v.kind << ": " << v.detail << "\n";
    for (const std::string& step : v.trace) std::cout << "    " << step << "\n";
  }
}

int usage() {
  std::cout
      << "usage: wmc_check [--list | --algo NAME | --all | --mutation-suite]\n"
         "                 [--mutate SITE] [--threads N] [--episodes N]\n"
         "                 [--budget N] [--seed N] [--no-sleep-sets]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace armbar::wmc;

  bool list = false, all = false, suite = false;
  std::string algo;
  CheckConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "wmc_check: " << what << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--mutation-suite") {
      suite = true;
    } else if (arg == "--algo") {
      algo = next("--algo");
    } else if (arg == "--mutate") {
      config.engine.mutate = next("--mutate");
    } else if (arg == "--threads") {
      config.threads = std::atoi(next("--threads"));
    } else if (arg == "--episodes") {
      config.episodes = std::atoi(next("--episodes"));
    } else if (arg == "--budget") {
      config.engine.max_executions =
          static_cast<std::uint64_t>(std::atoll(next("--budget")));
    } else if (arg == "--seed") {
      config.engine.seed =
          static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--no-sleep-sets") {
      config.engine.no_sleep_sets = true;
    } else {
      std::cerr << "wmc_check: unknown option " << arg << "\n";
      return usage();
    }
  }

  if (list) {
    for (const ModelInfo& info : all_models())
      std::cout << info.name << "  (T=" << info.threads
                << ", E=" << info.episodes << ")\n";
    return 0;
  }

  bool failed = false;

  auto run_one = [&](const ModelInfo& info) {
    const std::string& site = config.engine.mutate;
    if (!site.empty()) {
      const Result r = check_barrier(info, config);
      print_result(info.name + " [mutate " + site + "]", r);
      const bool hit =
          std::find(r.sites.begin(), r.sites.end(), site) != r.sites.end();
      if (!hit) std::cout << "  (site never exercised)\n";
      if (r.ok() || !hit) failed = true;  // a weakening must be caught
    } else {
      const Result r = check_barrier(info, config);
      print_result(info.name, r);
      if (!r.ok()) failed = true;
    }
  };

  auto run_suite = [&](const ModelInfo& info) {
    std::cout << info.name << ":\n";
    for (const MutationOutcome& o : mutation_suite(info, config)) {
      std::cout << "  " << o.site << ": "
                << (o.detected ? "detected" : "MISSED") << "  ["
                << o.executions << " executions]\n";
      if (!o.detected) failed = true;
    }
  };

  if (suite) {
    if (!algo.empty()) {
      const ModelInfo* info = find_model(algo);
      if (info == nullptr) {
        std::cerr << "wmc_check: unknown configuration " << algo << "\n";
        return 2;
      }
      run_suite(*info);
    } else {
      for (const ModelInfo& info : all_models()) run_suite(info);
    }
    return failed ? 1 : 0;
  }

  if (!algo.empty()) {
    const ModelInfo* info = find_model(algo);
    if (info == nullptr) {
      std::cerr << "wmc_check: unknown configuration " << algo << "\n";
      return 2;
    }
    run_one(*info);
    return failed ? 1 : 0;
  }

  if (all) {
    for (const ModelInfo& info : all_models()) run_one(info);
    return failed ? 1 : 0;
  }

  return usage();
}

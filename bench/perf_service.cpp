// Sweep-service perf harness: measures sustained jobs/sec through the
// three ways a JSONL workload can run — the SweepDriver-backed one-shot
// path, a fresh daemon (cold cache), and the same daemon re-serving the
// stream (warm cache) — and writes BENCH_service.json.  Every pass must
// produce byte-identical output (the service contract, docs/SERVICE.md
// §4); the harness hard-fails on the first diverging byte.
//
// The synthetic workload repeats a pool of distinct cells, so the cold
// pass mixes computes and intra-pass hits while the warm pass is hits
// only; the warm/cold ratio is the cache's leverage on a repeated-cell
// stream and is ratcheted by scripts/perf_gate.py (>= 5x acceptance).
//
// Flags:
//   --jobs N       job lines per pass (default 200)
//   --distinct D   distinct cells the stream cycles through (default 50)
//   --workers N    service/driver worker threads (default 0 = hardware)
//   --reps R       timed repetitions, best-of reported (default 3)
//   --json PATH    output path (default BENCH_service.json).  An existing
//                  run history is carried over and this run appended.
//   --emit-jobs N  print N workload lines to stdout and exit (the CI
//                  service-smoke job feeds these to sweep_cli)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "armbar/svc/service.hpp"
#include "armbar/util/args.hpp"

namespace {

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Prior history entries of an existing BENCH_service.json (same
/// line-oriented carry-over contract as perf_sim: every line whose first
/// token is `{"utc":` is one entry).
std::vector<std::string> read_history(const std::string& path) {
  std::vector<std::string> entries;
  std::ifstream in(path);
  if (!in) return entries;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line.compare(first, 8, "{\"utc\": ") != 0 &&
        line.compare(first, 7, "{\"utc\":") != 0)
      continue;
    auto last = line.find_last_not_of(" \t,");
    entries.push_back(line.substr(first, last - first + 1));
  }
  return entries;
}

/// Deterministic repeated-cell workload: @p distinct cells drawn from a
/// (machine x algorithm x threads) grid, cycled until @p jobs lines.
std::string make_workload(int jobs, int distinct) {
  static const char* kMachines[] = {"kunpeng920", "thunderx2", "phytium2000+"};
  static const char* kAlgos[] = {"opt",  "sense", "dis",   "mcs",
                                 "tour", "cmb",   "dtour", "hyper"};
  static const int kThreads[] = {16, 32, 64};
  std::vector<std::string> cells;
  cells.reserve(static_cast<std::size_t>(distinct));
  for (int i = 0; i < distinct; ++i) {
    std::ostringstream os;
    os << "{\"machine\": \"" << kMachines[i % 3] << "\", \"algo\": \""
       << kAlgos[(i / 3) % 8] << "\", \"threads\": "
       << kThreads[(i / 24) % 3] << ", \"iterations\": 20}";
    cells.push_back(os.str());
  }
  std::string out;
  for (int j = 0; j < jobs; ++j) {
    out += cells[static_cast<std::size_t>(j) % cells.size()];
    out += '\n';
  }
  return out;
}

struct PassTiming {
  std::vector<double> jps;  // jobs/sec per rep
  double best() const { return *std::max_element(jps.begin(), jps.end()); }
  double median() const {
    std::vector<double> v = jps;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);
  if (const auto emit = args.get("emit-jobs")) {
    const int n = static_cast<int>(args.get_int_or("emit-jobs", 50));
    const int distinct =
        static_cast<int>(args.get_int_or("distinct", std::min(n, 50)));
    std::fputs(make_workload(n, distinct).c_str(), stdout);
    return 0;
  }

  const int jobs = static_cast<int>(args.get_int_or("jobs", 200));
  const int distinct = static_cast<int>(args.get_int_or("distinct", 100));
  const int workers = static_cast<int>(args.get_int_or("workers", 0));
  const int reps = static_cast<int>(args.get_int_or("reps", 3));
  const std::string out_path = args.get("json").value_or("BENCH_service.json");
  if (jobs < 1 || distinct < 1 || reps < 1) {
    std::fprintf(stderr,
                 "perf_service: --jobs/--distinct/--reps must be >= 1\n");
    return 1;
  }

  const std::string workload = make_workload(jobs, distinct);

  // Reference bytes: the one-shot path (also the first timed pass).
  std::string reference;
  PassTiming oneshot, cold, warm;
  int effective_workers = 0;
  // Robustness counters summed over every pass.  The benchmark stream is
  // clean — no deadlines, no overload — so each must stay zero; CI
  // ratchets that with perf_gate --expect-equal.
  std::uint64_t shed = 0, deadline_errors = 0;
  const auto absorb = [&](const svc::ServiceStats& s) {
    shed += s.shed;
    deadline_errors += s.deadline_errors;
  };

  for (int rep = 0; rep < reps; ++rep) {
    {
      std::istringstream in(workload);
      std::ostringstream out;
      const svc::ServiceStats s =
          svc::SweepService::run_oneshot(in, out, workers);
      oneshot.jps.push_back(s.jobs_per_sec());
      absorb(s);
      if (rep == 0)
        reference = out.str();
      else if (out.str() != reference) {
        std::fprintf(stderr,
                     "perf_service: one-shot output diverged at rep %d\n",
                     rep);
        return 1;
      }
    }
    // One service per rep: serve #1 is the cold pass (empty cache),
    // serve #2 the warm pass (every cell cached).
    svc::ServiceOptions opts;
    opts.workers = workers;
    svc::SweepService service(opts);
    effective_workers = service.workers();
    for (PassTiming* pass : {&cold, &warm}) {
      std::istringstream in(workload);
      std::ostringstream out;
      const svc::ServiceStats s = service.serve(in, out);
      pass->jps.push_back(s.jobs_per_sec());
      absorb(s);
      if (out.str() != reference) {
        std::fprintf(stderr,
                     "perf_service: %s daemon output differs from one-shot "
                     "at rep %d (%llu jobs, %llu hits)\n",
                     pass == &cold ? "cold" : "warm", rep,
                     static_cast<unsigned long long>(s.jobs),
                     static_cast<unsigned long long>(s.cache_hits));
        return 1;
      }
    }
  }

  const double warm_vs_cold = warm.best() / cold.best();
  std::printf(
      "perf_service: %d jobs/pass (%d distinct), %d worker(s), best of %d\n"
      "  one-shot   %10.1f jobs/s (median %10.1f)\n"
      "  cold cache %10.1f jobs/s (median %10.1f)\n"
      "  warm cache %10.1f jobs/s (median %10.1f)\n"
      "  warm/cold  %10.2fx   outputs byte-identical: yes\n",
      jobs, distinct, effective_workers, reps, oneshot.best(),
      oneshot.median(), cold.best(), cold.median(), warm.best(),
      warm.median(), warm_vs_cold);

  std::vector<std::string> history = read_history(out_path);
  {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"utc\": \"%s\", \"jobs\": %d, \"distinct\": %d, "
                  "\"workers\": %d, \"oneshot_jobs_per_sec\": %.1f, "
                  "\"cold_jobs_per_sec\": %.1f, \"warm_jobs_per_sec\": %.1f, "
                  "\"warm_vs_cold\": %.3f}",
                  utc_now().c_str(), jobs, distinct, effective_workers,
                  oneshot.best(), cold.best(), warm.best(), warm_vs_cold);
    history.push_back(buf);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perf_service: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_service\",\n");
  std::fprintf(f, "  \"jobs_per_pass\": %d,\n", jobs);
  std::fprintf(f, "  \"distinct_cells\": %d,\n", distinct);
  std::fprintf(f, "  \"workers\": %d,\n", effective_workers);
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"oneshot_jobs_per_sec\": %.1f,\n", oneshot.best());
  std::fprintf(f, "  \"oneshot_jobs_per_sec_median\": %.1f,\n",
               oneshot.median());
  std::fprintf(f, "  \"cold_jobs_per_sec\": %.1f,\n", cold.best());
  std::fprintf(f, "  \"cold_jobs_per_sec_median\": %.1f,\n", cold.median());
  std::fprintf(f, "  \"warm_jobs_per_sec\": %.1f,\n", warm.best());
  std::fprintf(f, "  \"warm_jobs_per_sec_median\": %.1f,\n", warm.median());
  std::fprintf(f, "  \"warm_vs_cold\": %.3f,\n", warm_vs_cold);
  std::fprintf(f, "  \"byte_identical\": true,\n");
  std::fprintf(f, "  \"shed\": %llu,\n",
               static_cast<unsigned long long>(shed));
  std::fprintf(f, "  \"deadline_errors\": %llu,\n",
               static_cast<unsigned long long>(deadline_errors));
  std::fprintf(f, "  \"history\": [\n");
  for (std::size_t i = 0; i < history.size(); ++i)
    std::fprintf(f, "    %s%s\n", history[i].c_str(),
                 i + 1 < history.size() ? "," : "");
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("perf_service: wrote %s (%zu history entr%s)\n",
              out_path.c_str(), history.size(),
              history.size() == 1 ? "y" : "ies");
  return 0;
}

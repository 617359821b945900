// Simulator perf-regression harness: times the fixed Figure 7 sweep
// (3 machines x 7 algorithms x 12 thread counts = 252 simulations per
// rep) and writes wall time, event throughput, and the determinism
// checksum to BENCH_sim.json.  Run after any engine/memory change; the
// checksum must never move, the throughput must not regress.
//
// Every run times the sweep twice: plain (events_per_sec) and with a
// capacity-0 tracer per job (traced_events_per_sec) — the Traced access
// paths and phase counters every cold service job and every
// run_with_metrics sweep runs on.  Both must reproduce the same checksum.
//
// Timing is serial by default (workers=1) so numbers are comparable
// across revisions and to the embedded seed baseline; --workers N times
// the same sweep fanned over the SweepDriver pool instead (aggregate
// throughput, same results).
//
// Flags:
//   --reps N          timed repetitions (default 5; min and median reported)
//   --warmup-reps N   untimed repetitions before the clock starts (cold
//                     caches, page faults, frequency ramp; default 0)
//   --workers N       SweepDriver pool width (default 1 = serial)
//   --json PATH       output path (default BENCH_sim.json).  If the file
//                     already holds a run history, it is carried over and
//                     this run appended — the file accumulates the
//                     throughput trajectory across revisions.
//   --breakdown       additionally time the faulted and traced+faulted
//                     policy configurations and a synthetic engine-only
//                     event loop, and print all four configurations side
//                     by side, so a regression is attributable to the
//                     heap, the directory, or a hook at a glance.  Also
//                     asserts the four configurations are bit-identical
//                     (inert hooks change speed only).
//   --hier            additionally time a 1024-core hierarchical sweep
//                     (topo::hier1024 x {amo, central2, hybrid, opt} x
//                     {256, 1024} threads) — the many-core regime runs
//                     the multi-word bitmask directory path the Figure 7
//                     sweep never touches.  Adds hier_wall_s_min,
//                     hier_events_per_sec, and hier_checksum_ns to the
//                     JSON and the history entry.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "armbar/fault/plan.hpp"
#include "armbar/topo/hier.hpp"
#include "common.hpp"

namespace {

// Seed baseline, measured on this container before the hot-path overhaul
// (commit 01c2857 tree: std::vector<bool> sharer directory, binary-heap
// std::priority_queue engine, std::function spin predicates, per-pair
// latency vectors): best of repeated serial runs of this exact sweep,
// 0.0968 s/rep (10 reps timed together in 0.968 s).  Event counts are
// deterministic and identical across revisions, so the events/sec ratio
// equals the wall-time ratio.
constexpr double kSeedWallSecPerRep = 0.0968;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Prior history entries of an existing BENCH_sim.json: every line whose
/// first token is `{"utc":` is one self-contained entry, carried over
/// verbatim (trailing comma stripped).  The format is line-oriented on
/// purpose so the bench can append to its own output without a JSON
/// parser.
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

std::string history_entry(double wall_min, double wall_median,
                          double events_per_sec, double traced_events_per_sec,
                          double checksum_ns, int reps, int workers,
                          double speedup, bool hier,
                          double hier_events_per_sec,
                          double hier_checksum_ns) {
  std::ostringstream os;
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"utc\": \"%s\", \"reps\": %d, \"workers\": %d, "
                "\"wall_s_min\": %.6f, \"wall_s_median\": %.6f, "
                "\"events_per_sec\": %.1f, "
                "\"traced_events_per_sec\": %.1f, \"checksum_ns\": %.6f, "
                "\"speedup_vs_seed\": %.3f",
                utc_now().c_str(), reps, workers, wall_min, wall_median,
                events_per_sec, traced_events_per_sec, checksum_ns, speedup);
  os << buf;
  if (hier) {
    std::snprintf(buf, sizeof buf,
                  ", \"hier_events_per_sec\": %.1f, "
                  "\"hier_checksum_ns\": %.6f",
                  hier_events_per_sec, hier_checksum_ns);
    os << buf;
  }
  os << "}";
  return os.str();
}

struct TimedSweep {
  std::vector<double> walls;
  double checksum_ns = 0.0;
  std::uint64_t events_per_rep = 0;
  bool deterministic = true;

  double wall_min() const {
    return *std::min_element(walls.begin(), walls.end());
  }
  double events_per_sec() const {
    return static_cast<double>(events_per_rep) / wall_min();
  }
};

/// Time @p reps runs of @p jobs; checks every rep reproduces rep 0's
/// checksum and event count.
TimedSweep time_sweep(const armbar::simbar::SweepDriver& driver,
                      const std::vector<armbar::simbar::SweepJob>& jobs,
                      int reps, bool verbose) {
  TimedSweep out;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = driver.run(jobs);
    const auto t1 = std::chrono::steady_clock::now();
    out.walls.push_back(std::chrono::duration<double>(t1 - t0).count());

    double sum = 0.0;
    std::uint64_t events = 0;
    for (const auto& r : results) {
      sum += r.mean_overhead_ns;
      events += r.events_processed;
    }
    if (rep == 0) {
      out.checksum_ns = sum;
      out.events_per_rep = events;
    } else if (sum != out.checksum_ns || events != out.events_per_rep) {
      std::fprintf(stderr,
                   "perf_sim: DETERMINISM VIOLATION at rep %d "
                   "(checksum %.6f vs %.6f, events %llu vs %llu)\n",
                   rep, sum, out.checksum_ns,
                   static_cast<unsigned long long>(events),
                   static_cast<unsigned long long>(out.events_per_rep));
      out.deterministic = false;
      return out;
    }
    if (verbose)
      std::printf("  rep %d: %.3f s  (%.2f M events/s)\n", rep,
                  out.walls.back(),
                  static_cast<double>(events) / out.walls.back() / 1e6);
  }
  return out;
}

/// Synthetic engine-only load: each simulated thread hops through a chain
/// of deterministic delays — pure schedule/pop traffic with no memory
/// system attached.  Its throughput is the event-heap ceiling; the gap to
/// the plain sweep is the coherence directory's share of event cost.
armbar::sim::SimThread delay_chain(armbar::sim::Engine& eng, int tid,
                                   int steps) {
  for (int i = 0; i < steps; ++i)
    co_await armbar::sim::delay(
        eng, static_cast<armbar::util::Picos>(50 + (tid * 7 + i * 13) % 100));
}

double engine_only_events_per_sec() {
  constexpr int kThreads = 64;
  constexpr int kSteps = 4000;
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    armbar::sim::Engine eng;
    eng.reserve(kThreads, kThreads * 2);
    for (int t = 0; t < kThreads; ++t)
      eng.spawn(delay_chain(eng, t, kSteps));
    const auto t0 = std::chrono::steady_clock::now();
    eng.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    best = std::max(best,
                    static_cast<double>(eng.events_processed()) / wall);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);
  const int reps = static_cast<int>(args.get_int_or("reps", 5));
  if (reps < 1) {
    std::fprintf(stderr, "perf_sim: --reps must be >= 1\n");
    return 1;
  }
  const int warmup_reps =
      static_cast<int>(args.get_int_or("warmup-reps", 0));
  if (warmup_reps < 0) {
    std::fprintf(stderr, "perf_sim: --warmup-reps must be >= 0\n");
    return 1;
  }
  const int workers = static_cast<int>(args.get_int_or("workers", 1));
  const bool breakdown = args.has("breakdown");
  const bool hier = args.has("hier");
  const std::string out_path =
      args.get("json").value_or("BENCH_sim.json");

  const auto machines = topo::armv8_machines();
  const std::vector<Algo> algos = {
      Algo::kSense,      Algo::kDissemination, Algo::kCombiningTree,
      Algo::kMcsTree,    Algo::kTournament,    Algo::kStaticFway,
      Algo::kDynamicFway};
  const auto sweep = bench::thread_sweep();

  std::vector<simbar::SweepJob> jobs;
  for (const auto& m : machines)
    for (Algo a : algos)
      for (int p : sweep)
        jobs.push_back({&m, simbar::sim_factory(a, {}), bench::sim_cfg(p)});

  const simbar::SweepDriver driver(workers);
  std::printf("perf_sim: %zu sims/rep, %d reps (+%d warmup), %d worker(s)\n",
              jobs.size(), reps, warmup_reps, driver.workers());

  for (int w = 0; w < warmup_reps; ++w) (void)driver.run(jobs);

  const TimedSweep plain = time_sweep(driver, jobs, reps, /*verbose=*/true);
  if (!plain.deterministic) return 1;

  const double wall_min = plain.wall_min();
  const double wall_median = median_of(plain.walls);
  const double events_per_sec = plain.events_per_sec();
  const double events_per_sec_median =
      static_cast<double>(plain.events_per_rep) / wall_median;
  const double speedup = kSeedWallSecPerRep / wall_min;

  std::printf(
      "perf_sim: best %.3f s/rep (median %.3f), %.2f M events/s, "
      "checksum %.6f ns, %.2fx vs seed (serial baseline %.4f s/rep)\n",
      wall_min, wall_median, events_per_sec / 1e6, plain.checksum_ns,
      speedup, kSeedWallSecPerRep);

  // -- the traced sweep (what every cold service job runs) -----------------
  // One tracer per job (jobs run concurrently; a tracer is not
  // synchronized).  Capacity 0: exact counters, no event log — the
  // overhead measured is the phase counting itself.
  std::deque<sim::Tracer> tracers;
  std::vector<simbar::SweepJob> traced_jobs = jobs;
  for (auto& j : traced_jobs) {
    tracers.emplace_back(0);
    j.tracer = &tracers.back();
  }
  const TimedSweep traced =
      time_sweep(driver, traced_jobs, reps, /*verbose=*/false);
  if (!traced.deterministic) return 1;
  if (traced.checksum_ns != plain.checksum_ns ||
      traced.events_per_rep != plain.events_per_rep) {
    std::fprintf(stderr,
                 "perf_sim: TRACED DIVERGENCE (checksum %.6f vs plain %.6f, "
                 "events %llu vs %llu)\n",
                 traced.checksum_ns, plain.checksum_ns,
                 static_cast<unsigned long long>(traced.events_per_rep),
                 static_cast<unsigned long long>(plain.events_per_rep));
    return 1;
  }
  const double traced_events_per_sec = traced.events_per_sec();
  std::printf(
      "perf_sim: traced best %.3f s/rep, %.2f M events/s, %.3fx plain "
      "wall\n",
      traced.wall_min(), traced_events_per_sec / 1e6,
      traced.wall_min() / wall_min);

  // -- optional policy/engine breakdown -------------------------------------
  double engine_only = 0.0;
  TimedSweep faulted, both;
  if (breakdown) {
    // One neutral (active but perturbation-free) plan shared by all jobs:
    // the Faulted instantiations run every fault hook, none of which
    // changes a timestamp.
    int max_cores = 0, max_layers = 0;
    for (const auto& m : machines) {
      max_cores = std::max(max_cores, m.num_cores());
      max_layers = std::max(max_layers, m.num_layers());
    }
    const fault::Plan neutral = fault::Plan::neutral(max_cores, max_layers);
    std::vector<simbar::SweepJob> faulted_jobs = jobs;
    for (auto& j : faulted_jobs) j.cfg.fault = &neutral;
    std::vector<simbar::SweepJob> both_jobs = traced_jobs;
    for (auto& j : both_jobs) j.cfg.fault = &neutral;

    engine_only = engine_only_events_per_sec();
    faulted = time_sweep(driver, faulted_jobs, reps, /*verbose=*/false);
    both = time_sweep(driver, both_jobs, reps, /*verbose=*/false);
    if (!faulted.deterministic || !both.deterministic) return 1;

    // Inert hooks must change nothing but speed: all four policy
    // instantiations produce the same checksum and event count.
    for (const TimedSweep* t : {&faulted, &both}) {
      if (t->checksum_ns != plain.checksum_ns ||
          t->events_per_rep != plain.events_per_rep) {
        std::fprintf(stderr,
                     "perf_sim: POLICY DIVERGENCE (checksum %.6f vs plain "
                     "%.6f, events %llu vs %llu)\n",
                     t->checksum_ns, plain.checksum_ns,
                     static_cast<unsigned long long>(t->events_per_rep),
                     static_cast<unsigned long long>(plain.events_per_rep));
        return 1;
      }
    }

    const auto row = [&](const char* name, const TimedSweep& t) {
      const double overhead =
          (plain.wall_min() > 0.0)
              ? (t.wall_min() / plain.wall_min() - 1.0) * 100.0
              : 0.0;
      std::printf("  %-16s %8.3f %8.2f   %+6.1f%%\n", name, t.wall_min(),
                  t.events_per_sec() / 1e6, overhead);
    };
    std::printf("perf_sim breakdown (best of %d, serial sweep):\n", reps);
    std::printf("  %-16s %8s %8s   %s\n", "config", "wall_s", "Mev/s",
                "vs plain");
    std::printf("  %-16s %8s %8.2f   %s\n", "engine-only", "-",
                engine_only / 1e6, "(synthetic heap ceiling)");
    row("plain", plain);
    row("traced", traced);
    row("faulted", faulted);
    row("traced+faulted", both);
    std::printf(
        "  directory+coherence share of plain event cost: ~%.0f%% "
        "(1 - plain/engine-only)\n",
        (1.0 - events_per_sec / engine_only) * 100.0);
    std::printf(
        "  policy instantiations bit-identical: yes (checksum %.6f, "
        "%llu events)\n",
        plain.checksum_ns,
        static_cast<unsigned long long>(plain.events_per_rep));
  }

  // -- optional 1024-core hierarchical sweep --------------------------------
  double hier_wall_min = 0.0, hier_events_per_sec = 0.0,
         hier_checksum_ns = 0.0;
  std::uint64_t hier_events_per_rep = 0;
  if (hier) {
    const topo::Machine hm = topo::hier1024();
    std::vector<simbar::SweepJob> hier_jobs;
    for (Algo a : {Algo::kClusterAmo, Algo::kCentral2, Algo::kHybrid,
                   Algo::kOptimized}) {
      for (int p : {256, 1024}) {
        simbar::SimRunConfig cfg;
        cfg.threads = p;
        cfg.iterations = 10;
        cfg.warmup = 2;
        hier_jobs.push_back({&hm, simbar::sim_factory(a, {}), cfg});
      }
    }
    std::printf("perf_sim: hier sweep on %s, %zu sims/rep\n",
                hm.name().c_str(), hier_jobs.size());
    const TimedSweep hs = time_sweep(driver, hier_jobs, reps,
                                     /*verbose=*/false);
    if (!hs.deterministic) return 1;
    hier_wall_min = hs.wall_min();
    hier_events_per_sec = hs.events_per_sec();
    hier_checksum_ns = hs.checksum_ns;
    hier_events_per_rep = hs.events_per_rep;
    std::printf(
        "perf_sim: hier best %.3f s/rep, %.2f M events/s, "
        "checksum %.6f ns\n",
        hier_wall_min, hier_events_per_sec / 1e6, hier_checksum_ns);
  }

  // -- JSON output, with carried-over run history ---------------------------
  std::vector<std::string> history = read_history(out_path);
  history.push_back(history_entry(wall_min, wall_median, events_per_sec,
                                  traced_events_per_sec, plain.checksum_ns,
                                  reps, driver.workers(), speedup, hier,
                                  hier_events_per_sec, hier_checksum_ns));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perf_sim: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_sim\",\n");
  std::fprintf(f,
               "  \"sweep\": {\"machines\": %zu, \"algorithms\": %zu, "
               "\"thread_counts\": %zu, \"sims_per_rep\": %zu},\n",
               machines.size(), algos.size(), sweep.size(), jobs.size());
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"warmup_reps\": %d,\n", warmup_reps);
  std::fprintf(f, "  \"workers\": %d,\n", driver.workers());
  std::fprintf(f, "  \"wall_s\": [");
  for (std::size_t i = 0; i < plain.walls.size(); ++i)
    std::fprintf(f, "%s%.6f", i ? ", " : "", plain.walls[i]);
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"wall_s_min\": %.6f,\n", wall_min);
  std::fprintf(f, "  \"wall_s_median\": %.6f,\n", wall_median);
  std::fprintf(f, "  \"events_processed_per_rep\": %llu,\n",
               static_cast<unsigned long long>(plain.events_per_rep));
  std::fprintf(f, "  \"events_per_sec\": %.1f,\n", events_per_sec);
  std::fprintf(f, "  \"events_per_sec_median\": %.1f,\n",
               events_per_sec_median);
  std::fprintf(f, "  \"traced_events_per_sec\": %.1f,\n",
               traced_events_per_sec);
  std::fprintf(f, "  \"checksum_ns\": %.6f,\n", plain.checksum_ns);
  std::fprintf(f, "  \"seed_wall_s_per_rep\": %.6f,\n", kSeedWallSecPerRep);
  std::fprintf(f, "  \"speedup_vs_seed\": %.3f,\n", speedup);
  if (hier) {
    std::fprintf(f, "  \"hier_wall_s_min\": %.6f,\n", hier_wall_min);
    std::fprintf(f, "  \"hier_events_processed_per_rep\": %llu,\n",
                 static_cast<unsigned long long>(hier_events_per_rep));
    std::fprintf(f, "  \"hier_events_per_sec\": %.1f,\n",
                 hier_events_per_sec);
    std::fprintf(f, "  \"hier_checksum_ns\": %.6f,\n", hier_checksum_ns);
  }
  if (breakdown) {
    std::fprintf(f, "  \"breakdown\": {\n");
    std::fprintf(f, "    \"engine_only_events_per_sec\": %.1f,\n",
                 engine_only);
    std::fprintf(f, "    \"plain_events_per_sec\": %.1f,\n",
                 plain.events_per_sec());
    std::fprintf(f, "    \"traced_events_per_sec\": %.1f,\n",
                 traced_events_per_sec);
    std::fprintf(f, "    \"faulted_events_per_sec\": %.1f,\n",
                 faulted.events_per_sec());
    std::fprintf(f, "    \"traced_faulted_events_per_sec\": %.1f\n",
                 both.events_per_sec());
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"history\": [\n");
  for (std::size_t i = 0; i < history.size(); ++i)
    std::fprintf(f, "    %s%s\n", history[i].c_str(),
                 i + 1 < history.size() ? "," : "");
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("perf_sim: wrote %s (%zu history entr%s)\n", out_path.c_str(),
              history.size(), history.size() == 1 ? "y" : "ies");
  return 0;
}

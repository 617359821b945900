// sweep_cli: general-purpose simulation driver.
//
// Run any barrier on any modeled machine across a thread sweep, export
// CSV, dump an operation trace for chrome://tracing, auto-tune, or serve
// JSONL job streams (one-shot or as a long-running daemon):
//
//   $ ./sweep_cli --machine kunpeng920 --algo opt --threads 1,2,4,8,16,64
//   $ ./sweep_cli --machine tx2 --algo gcc-sense --threads 64 --trace t.json
//   $ ./sweep_cli --machine phytium --autotune --prune
//   $ ./sweep_cli --machine kp920 --algo all --threads 64 --metrics sum.json
//   $ ./sweep_cli --jobs grid.jsonl > results.jsonl
//   $ ./sweep_cli --daemon --workers 8 < grid.jsonl > results.jsonl

#include <array>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "armbar/fault/plan.hpp"
#include "armbar/obs/aggregate.hpp"
#include "armbar/obs/heatmap.hpp"
#include "armbar/obs/perfetto.hpp"
#include "armbar/simbar/autotune.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/svc/service.hpp"
#include "armbar/topo/hier.hpp"
#include "armbar/topo/machine_file.hpp"
#include "armbar/topo/placement.hpp"
#include "armbar/topo/platforms.hpp"
#include "armbar/util/args.hpp"
#include "armbar/util/table.hpp"

namespace {

/// Every flag sweep_cli reads; any other one is an error.
constexpr std::string_view kFlags[] = {
    "algo",            "autotune",        "burst",           "csv",
    "daemon",          "deadline-ms",     "fault-seed",      "heatmap",
    "help",            "hier-geometry",   "hier-ratios",     "hot-lines",
    "iterations",      "jobs",            "link-flap",       "machine",
    "machine-file",    "max-inflight",    "metrics",         "no-cache",
    "noise",           "placement",       "prune",           "straggler",
    "straggler-dwell", "threads",         "trace",           "workers"};

std::vector<int> parse_thread_list(const std::string& spec, int max_cores) {
  std::vector<int> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int p = std::stoi(item);
    if (p < 1 || p > max_cores)
      throw std::invalid_argument("thread count " + item + " out of range");
    out.push_back(p);
  }
  if (out.empty()) throw std::invalid_argument("--threads list is empty");
  return out;
}

/// Parse "A:B" into a pair of doubles (for --noise P:D and --straggler F:S).
std::pair<double, double> parse_pair(const std::string& flag,
                                     const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size())
    throw std::invalid_argument("--" + flag + " expects A:B, got '" + spec +
                                "'");
  std::size_t pos_a = 0, pos_b = 0;
  const std::string a = spec.substr(0, colon), b = spec.substr(colon + 1);
  const double va = std::stod(a, &pos_a), vb = std::stod(b, &pos_b);
  if (pos_a != a.size() || pos_b != b.size())
    throw std::invalid_argument("--" + flag + " expects A:B, got '" + spec +
                                "'");
  return {va, vb};
}

/// Parse "A:B:C" into three doubles (for --link-flap I:D:F).
std::array<double, 3> parse_triple(const std::string& flag,
                                   const std::string& spec) {
  const auto c1 = spec.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos || c1 == 0 ||
      c2 == c1 + 1 || c2 + 1 == spec.size())
    throw std::invalid_argument("--" + flag + " expects A:B:C, got '" + spec +
                                "'");
  const std::string parts[3] = {spec.substr(0, c1),
                                spec.substr(c1 + 1, c2 - c1 - 1),
                                spec.substr(c2 + 1)};
  std::array<double, 3> out{};
  for (int i = 0; i < 3; ++i) {
    std::size_t used = 0;
    out[static_cast<std::size_t>(i)] = std::stod(parts[i], &used);
    if (used != parts[i].size())
      throw std::invalid_argument("--" + flag + " expects A:B:C, got '" +
                                  spec + "'");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace armbar;
  try {
    const util::Args args(argc, argv);
    args.reject_unknown(kFlags);
    if (args.has("help")) {
      std::cout
          << "usage: " << args.program() << " [options]\n"
          << "  --machine M    phytium2000+ | thunderx2 | kunpeng920 | "
             "xeongold |\n"
          << "                 hier256 | hier1024 | hier4096 (default "
             "kunpeng920)\n"
          << "  --machine-file F  load a custom topology (key=value "
             "format; see docs)\n"
          << "  --hier-geometry C,K,D  synthetic hierarchical machine: C\n"
          << "                 cores/cluster, K clusters/die, D dies (see\n"
          << "                 docs/MODEL.md; overrides --machine)\n"
          << "  --hier-ratios A:B  with --hier-geometry: cross-cluster and\n"
          << "                 cross-die latency ratios (default 3.1:1.7)\n"
          << "  --algo A       algorithm id (sense, gcc-sense, dis, cmb, "
             "mcs,\n"
          << "                 tour, stour, stour-pad, stour-pad4, dtour,\n"
          << "                 hyper, opt, hybrid, nway-dis, ring, amo,\n"
          << "                 central2) or 'all'\n"
          << "  --threads L    comma list, e.g. 1,2,4,8,16,32,64\n"
          << "  --placement P  compact | scatter | random (default compact)\n"
          << "  --iterations N episodes per run (default 20)\n"
          << "  --trace FILE   write a Perfetto / chrome://tracing JSON of "
             "the run\n"
          << "  --hot-lines    print the busiest cachelines per run\n"
          << "  --autotune     rank all candidates at --threads (single "
             "value)\n"
          << "  --prune        with --autotune: skip notify variants whose\n"
          << "                 fan-in's arrival floor is already dominated\n"
          << "  --metrics [F]  run the sweep with per-job metrics and print\n"
          << "                 the aggregated phase/layer summary; with a\n"
          << "                 value, also write the summary JSON to F\n"
          << "  --noise P:D    inject OS-noise pulses of D us every P us\n"
          << "                 (seeded, deterministic; see docs/FAULTS.md)\n"
          << "  --burst I:D    machine-wide correlated bursts: all cores\n"
          << "                 stall together for D us at Poisson arrivals\n"
          << "                 with mean gap I us\n"
          << "  --straggler F:S slow a seeded fraction F of cores by Sx\n"
          << "  --straggler-dwell D  with --straggler: time-varying set —\n"
          << "                 each core alternates slow/fast (Markov), mean\n"
          << "                 slow episode D us, stationary fraction F\n"
          << "  --link-flap I:D:F  cross-cluster link flaps: latency xF, but\n"
          << "                 only inside D-us windows at mean gap I us\n"
          << "  --fault-seed N seed for the fault plan (default 42)\n"
          << "  --heatmap [F]  print a core x cacheline contention heatmap\n"
          << "                 (ASCII; with a value, write CSV to F)\n"
          << "  --csv          machine-readable output\n"
          << "service modes (JSONL job streams; see docs/SERVICE.md):\n"
          << "  --jobs FILE    run a JSONL job file one-shot ('-' = stdin)\n"
          << "  --daemon       serve the job stream through the pooled\n"
          << "                 barrier-lab service (implies stdin without\n"
          << "                 --jobs; byte-identical output to --jobs)\n"
          << "  --workers N    worker threads (0 = hardware concurrency)\n"
          << "  --no-cache     daemon: recompute every cell (no result cache)\n"
          << "  --deadline-ms D  daemon: per-job wall-clock deadline; a job\n"
          << "                 over budget becomes a JobError{kind:deadline}\n"
          << "  --max-inflight N daemon: shed jobs above N in flight\n"
          << "                 (JobError{kind:shed}; 0 = never shed)\n";
      return 0;
    }

    // Service modes bypass the sweep-table machinery entirely: results go
    // to stdout (the comparable stream), accounting to stderr.
    if (args.has("jobs") || args.has("daemon")) {
      const std::string jobs_path = args.get_or("jobs", "-");
      std::ifstream jobs_file;
      std::istream* in = &std::cin;
      if (jobs_path != "-") {
        jobs_file.open(jobs_path);
        if (!jobs_file)
          throw std::invalid_argument("cannot open jobs file " + jobs_path);
        in = &jobs_file;
      }
      const int workers = static_cast<int>(args.get_int_or("workers", 0));
      svc::ServiceStats stats;
      if (args.has("daemon")) {
        svc::ServiceOptions opts;
        opts.workers = workers;
        opts.use_cache = !args.has("no-cache");
        opts.job_deadline_ms = args.get_double_or("deadline-ms", 0.0);
        opts.max_inflight =
            static_cast<std::uint64_t>(args.get_int_or("max-inflight", 0));
        svc::SweepService service(opts);
        stats = service.serve(*in, std::cout);
        std::cerr << "daemon: " << stats.jobs << " job(s), " << stats.failed
                  << " failed, cache " << stats.cache_hits << " hit(s) / "
                  << stats.cache_misses << " miss(es), "
                  << stats.intake_misses << " run on intake, "
                  << stats.jobs_per_sec() << " jobs/s ("
                  << service.workers() << " workers)\n";
        if (stats.shed + stats.deadline_errors > 0)
          std::cerr << "daemon robustness: " << stats.shed << " shed, "
                    << stats.deadline_errors << " deadline error(s)\n";
      } else {
        stats = svc::SweepService::run_oneshot(*in, std::cout, workers);
        std::cerr << "one-shot: " << stats.jobs << " job(s), " << stats.failed
                  << " failed, " << stats.jobs_per_sec() << " jobs/s\n";
      }
      return 0;
    }

    if (args.has("hier-ratios") && !args.has("hier-geometry"))
      throw std::invalid_argument(
          "--hier-ratios requires --hier-geometry C,K,D");
    const auto make_machine = [&]() -> topo::Machine {
      if (args.has("hier-geometry")) {
        topo::HierSpec spec;
        const auto geo = args.get_or("hier-geometry", "");
        std::stringstream ss(geo);
        std::string item;
        std::vector<int> dims;
        while (std::getline(ss, item, ',')) dims.push_back(std::stoi(item));
        if (dims.size() != 3)
          throw std::invalid_argument("--hier-geometry expects C,K,D, got '" +
                                      geo + "'");
        spec.cores_per_cluster = dims[0];
        spec.clusters_per_die = dims[1];
        spec.dies = dims[2];
        if (const auto ratios = args.get("hier-ratios")) {
          const auto [cluster_r, die_r] = parse_pair("hier-ratios", *ratios);
          spec.cluster_ratio = cluster_r;
          spec.die_ratio = die_r;
        }
        return topo::make_hier_machine(spec);
      }
      return args.has("machine-file")
                 ? topo::load_machine_file(args.get_or("machine-file", ""))
                 : topo::machine_by_name(args.get_or("machine", "kunpeng920"));
    };
    const auto machine = make_machine();
    const auto thread_list = parse_thread_list(
        args.get_or("threads", "64"), machine.num_cores());

    // Optional fault plan, shared by every run of the sweep.
    fault::FaultSpec fault_spec;
    fault_spec.seed =
        static_cast<std::uint64_t>(args.get_int_or("fault-seed", 42));
    if (const auto noise = args.get("noise")) {
      const auto [period, duration] = parse_pair("noise", *noise);
      fault_spec.noise.period_us = period;
      fault_spec.noise.duration_us = duration;
    }
    if (const auto burst = args.get("burst")) {
      const auto [interval, duration] = parse_pair("burst", *burst);
      fault_spec.burst.interval_us = interval;
      fault_spec.burst.duration_us = duration;
    }
    if (const auto straggler = args.get("straggler")) {
      const auto [fraction, slowdown] = parse_pair("straggler", *straggler);
      fault_spec.straggler.fraction = fraction;
      fault_spec.straggler.slowdown = slowdown;
    }
    if (args.has("straggler-dwell")) {
      if (!args.has("straggler"))
        throw std::invalid_argument(
            "--straggler-dwell requires --straggler F:S");
      fault_spec.straggler.dwell_us =
          args.get_double_or("straggler-dwell", 0.0);
    }
    if (const auto flap = args.get("link-flap")) {
      const auto [interval, duration, factor] =
          parse_triple("link-flap", *flap);
      fault_spec.link.flap_interval_us = interval;
      fault_spec.link.flap_duration_us = duration;
      fault_spec.link.factor = factor;
    }
    const fault::Plan fault_plan =
        fault_spec.any()
            ? fault::Plan(fault_spec, machine.num_cores(), machine.num_layers())
            : fault::Plan();
    if (fault_plan.active())
      std::cout << "fault plan: " << fault_plan.describe() << "\n";

    if (args.has("autotune")) {
      simbar::TuneOptions opts;
      opts.iterations = static_cast<int>(args.get_int_or("iterations", 16));
      opts.prune = args.has("prune");
      if (fault_plan.active()) opts.fault = &fault_plan;
      const auto tuned = simbar::autotune(machine, thread_list.front(), opts);
      util::Table t("Auto-tune on " + machine.name() + " at " +
                    std::to_string(thread_list.front()) + " threads");
      t.set_header({"rank", "barrier", "overhead (us)", "bound", "why"});
      int rank = 1;
      for (const auto& c : tuned.ranking)
        t.add_row({std::to_string(rank++), c.name,
                   util::Table::num(c.overhead_us, 3),
                   obs::to_string(c.bound), c.explanation});
      std::cout << (args.has("csv") ? t.to_csv() : t.to_text());
      std::cout << "\nevaluated " << tuned.evaluated << " of "
                << tuned.grid_size << " grid candidates\n";
      for (const auto& p : tuned.pruned) std::cout << "  " << p << "\n";
      return 0;
    }

    const std::string algo_spec = args.get_or("algo", "opt");
    std::vector<Algo> algos;
    if (algo_spec == "all") {
      for (Algo a : all_algos())
        if (a != Algo::kStdBarrier && a != Algo::kPthread) algos.push_back(a);
    } else {
      algos.push_back(algo_from_string(algo_spec));
    }

    const std::string placement = args.get_or("placement", "compact");

    util::Table t("Simulated overhead (us) on " + machine.name() +
                  ", placement=" + placement);
    std::vector<std::string> header{"threads"};
    for (Algo a : algos) header.push_back(to_string(a));
    t.set_header(std::move(header));

    sim::Tracer tracer;
    const bool tracing = args.has("trace");
    const bool heatmap = args.has("heatmap");
    const bool metrics = args.has("metrics");
    if ((tracing || heatmap) && metrics)
      throw std::invalid_argument(
          "--trace/--heatmap and --metrics are exclusive: metrics mode "
          "attaches one driver-owned tracer per job");

    const auto make_cfg = [&](int p) {
      simbar::SimRunConfig cfg;
      cfg.threads = p;
      cfg.iterations = static_cast<int>(args.get_int_or("iterations", 20));
      cfg.warmup = std::min(5, cfg.iterations - 1);
      if (placement == "scatter")
        cfg.core_of_thread = topo::scatter_placement(machine, p);
      else if (placement == "random")
        cfg.core_of_thread = topo::random_placement(machine, p);
      else if (placement != "compact")
        throw std::invalid_argument("unknown placement " + placement);
      if (fault_plan.active()) cfg.fault = &fault_plan;
      return cfg;
    };

    if (metrics) {
      // Fan the whole grid out over the sweep driver with per-job metrics;
      // results come back in job order, so the tables below read the grid
      // back row-major.
      std::vector<simbar::SweepJob> jobs;
      for (int p : thread_list)
        for (Algo a : algos)
          jobs.push_back(simbar::SweepJob{
              &machine,
              simbar::sim_factory(a, {.cluster_size = machine.cluster_size()}),
              make_cfg(p)});
      const simbar::SweepDriver driver;
      const auto runs = driver.run_with_metrics(jobs);
      std::size_t j = 0;
      for (int p : thread_list) {
        std::vector<std::string> row{std::to_string(p)};
        for (std::size_t k = 0; k < algos.size(); ++k)
          row.push_back(util::Table::num(
              runs[j++].result.mean_overhead_ns / 1000.0, 3));
        t.add_row(std::move(row));
      }
      std::cout << (args.has("csv") ? t.to_csv() : t.to_text());
      const obs::SweepSummary summary = obs::aggregate(runs);
      std::cout << '\n' << obs::to_table(summary);
      if (const auto path = args.get("metrics"); path && !path->empty()) {
        std::ofstream out(*path);
        out << obs::to_json(summary);
        std::cout << "\nwrote sweep summary JSON to " << *path << "\n";
      }
      return 0;
    }

    for (int p : thread_list) {
      std::vector<std::string> row{std::to_string(p)};
      for (Algo a : algos) {
        const auto cfg = make_cfg(p);
        const auto r = simbar::measure_barrier(
            machine, simbar::sim_factory(a, {.cluster_size = machine.cluster_size()}),
            cfg, (tracing || heatmap) ? &tracer : nullptr);
        row.push_back(util::Table::num(r.mean_overhead_ns / 1000.0, 3));
        if (args.has("hot-lines")) {
          std::cout << to_string(a) << " @" << p
                    << " threads, busiest cachelines:\n";
          for (const auto& h : r.hot_lines)
            std::cout << "  line " << h.line << ": " << h.reads
                      << " reads, " << h.writes << " writes\n";
        }
      }
      t.add_row(std::move(row));
    }
    std::cout << (args.has("csv") ? t.to_csv() : t.to_text());

    if (tracing) {
      const std::string path = args.get_or("trace", "trace.json");
      std::ofstream out(path);
      out << obs::to_perfetto_json(tracer);
      std::cout << "\nwrote " << tracer.events().size()
                << " trace events and " << tracer.spans().size()
                << " phase spans to " << path;
      if (tracer.dropped() > 0)
        std::cout << " (" << tracer.dropped() << " events dropped)";
      std::cout << "\n";
    }

    if (heatmap) {
      const auto hm = obs::contention_heatmap(tracer, machine.num_cores());
      if (const auto path = args.get("heatmap"); path && !path->empty()) {
        std::ofstream out(*path);
        out << obs::to_csv(hm);
        std::cout << "\nwrote contention heatmap CSV (" << hm.rows.size()
                  << " cacheline rows) to " << *path << "\n";
      } else {
        std::cout << '\n' << obs::to_ascii(hm);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

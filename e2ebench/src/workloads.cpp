#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "armbar/barriers/factory.hpp"
#include "armbar/barriers/team.hpp"
#include "armbar/epcc/epcc.hpp"
#include "armbar/obs/aggregate.hpp"
#include "armbar/obs/native_phase.hpp"
#include "armbar/svc/service.hpp"
#include "armbar/util/stats.hpp"
#include "cells.hpp"
#include "io.hpp"
#include "replay.hpp"

namespace e2e {

namespace {

using armbar::Algo;
using armbar::Barrier;
using armbar::ThreadTeam;
using armbar::util::median;
using armbar::util::quantile;

// -- load and size -----------------------------------------------------------
// Every service runs kWorkers workers plus its intake thread, and native
// teams run kNativeThreads threads: at most three busy threads per process.
constexpr int kWorkers = 2;
constexpr int kNativeThreads = 2;
// setup_s is the median over several set-ups per run: a few when a set-up
// primes a pool, more when it only builds a service or a team.
constexpr int kPrimeSetupReps = 15;
constexpr int kSetupReps = 501;
constexpr int kMinPasses = 3;         // timed passes per run, at least
// Three whole generator blocks, so every pool, and so every priming, has
// the same make-up whatever the seed.
constexpr std::size_t kPoolCells = 3 * CellGenerator::kBlock;
constexpr std::size_t kColdPassJobs = 4000;
constexpr std::size_t kColdSamplePerPass = 12;
constexpr std::size_t kWarmPassJobs = 20000;
constexpr double kPacedRate = 1000.0;  // offered jobs per second
constexpr int kPacedBlock = 10;        // of every 10 arrivals ...
constexpr int kPacedNewPerBlock = 2;   // ... 2 are new cells
// Largest end-of-run backlog (last record written - last line due) of a
// paced run that still counts as keeping up with the offered rate.
constexpr std::int64_t kPacedBacklogMarginNs = 100'000'000;
constexpr std::size_t kProbeJobs = 64;  // service probe of a native trace
constexpr int kNativeInner = 2000;      // episodes per EPCC sample
constexpr int kNativeDelay = 200;       // delay-loop units per episode
constexpr int kEscapeEpisodes = 2000;   // per algorithm, untimed
constexpr std::size_t kRepeatChecks = 32;  // misses simulated twice per trace

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void progress(const char* workload, std::size_t pass, std::size_t jobs,
              double wall_s, double p50_us) {
  std::cerr << workload << " pass " << pass << ": " << jobs << " jobs in "
            << wall_s << " s (" << static_cast<double>(jobs) / wall_s
            << " jobs/s), p50 latency " << p50_us << " us\n";
}

svc::ServiceOptions service_options() {
  svc::ServiceOptions o;
  o.workers = kWorkers;
  return o;
}

// -- one serve() pass --------------------------------------------------------

struct Pass {
  std::vector<LineSource::LineTimes> times;
  std::vector<LineSink::Record> records;
  std::string summary;
  double wall_s = 0.0;
};

Pass serve(svc::SweepService& service, LineSource& source,
           std::size_t expected) {
  LineSink sink(expected);
  std::istream in(&source);
  std::ostream out(&sink);
  Pass p;
  const std::int64_t t0 = now_ns();
  service.serve(in, out);
  p.wall_s = seconds_since(t0);
  p.times = source.times();
  p.records = sink.records();
  p.summary = sink.summary();
  return p;
}

/// An unpaced source over @p lines, in order.
LineSource list_source(const std::vector<std::string>& lines) {
  return LineSource(
      [&lines](std::size_t i, std::string& out) {
        if (i >= lines.size()) return false;
        out = lines[i];
        return true;
      },
      lines.size());
}

/// Check the stream contract of a pass: exactly one record per job, in
/// order, none an error, and a summary over every job.
void check_stream(const Pass& p, std::size_t jobs, RunResult& r,
                  const char* what) {
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < jobs; ++k)
    if (k >= p.records.size() || p.records[k].job != k || p.records[k].error)
      ++bad;
  if (bad > 0)
    r.fail(bad, std::string(what) + ": missing, misordered or error records");
  if (p.records.size() != jobs || p.times.size() != jobs)
    r.fail(0, std::string(what) + ": " + std::to_string(p.records.size()) +
                  " records for " + std::to_string(p.times.size()) +
                  " lines read, " + std::to_string(jobs) + " expected");
  if (p.summary.find("\"runs\": " + std::to_string(jobs) + ",") ==
      std::string::npos)
    r.fail(0, std::string(what) + ": summary does not cover every job");
}

/// Tail digests of run_oneshot's records for @p lines, in line order.
std::vector<std::uint64_t> oneshot_digests(
    const std::vector<std::string>& lines) {
  std::string input;
  for (const std::string& l : lines) input += l + '\n';
  std::istringstream in(input);
  LineSink sink(lines.size());
  std::ostream out(&sink);
  svc::SweepService::run_oneshot(in, out, kWorkers);
  std::vector<std::uint64_t> d;
  for (const LineSink::Record& rec : sink.records())
    d.push_back(rec.error ? 0 : rec.digest);
  d.resize(lines.size(), 0);
  return d;
}

/// Per-job latency (written - due) of a pass, in microseconds.
std::vector<double> latencies_us(const Pass& p) {
  std::vector<double> out;
  const std::size_t n = std::min(p.records.size(), p.times.size());
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k)
    out.push_back(
        static_cast<double>(p.records[k].written_ns - p.times[k].due_ns) *
        1e-3);
  return out;
}

// -- per-layer tracing -------------------------------------------------------

struct ServiceTrace {
  std::vector<double> parse_us, key_us, find_us, insert_us;
  std::vector<double> measure_us, plan_us, metrics_us, lag_us;
  std::uint64_t lookups = 0, hits = 0;
  Accounting accounting;
  std::vector<std::int64_t> resolve_ns;
  double ns_per_event[2][2] = {};  // [faulted][hier]
  SimCounts counts;
  double aggregate_ms = 0.0;
  double latency_p99_us = 0.0;  ///< of the traced pass, written - due
  double backlog_ms = 0.0;      ///< last record written - last line due
};

void collect(const StageTimes& st, ServiceTrace& t) {
  const auto us = [](std::int64_t ns) {
    return static_cast<double>(ns) * 1e-3;
  };
  t.parse_us.push_back(us(st.parse));
  t.key_us.push_back(us(st.key));
  t.find_us.push_back(us(st.find));
  if (st.hit) return;
  t.insert_us.push_back(us(st.insert));
  t.measure_us.push_back(us(st.measure));
  t.metrics_us.push_back(us(st.metrics));
  if (st.faulted) t.plan_us.push_back(us(st.plan));
}

/// Replay @p priming and then the timed @p pass job by job (its lines in
/// @p lines), timing each call, and split every job's latency.  The first
/// kRepeatChecks misses are simulated again on a fresh replayer: their
/// exact counts must repeat bit for bit.
ServiceTrace trace_service(const std::vector<std::string>& priming,
                           const std::vector<std::string>& lines,
                           const Pass& pass, RunResult& r) {
  ServiceTrace t;
  Replayer rep;
  std::vector<std::pair<const std::string*, SimCounts>> repeat;
  const auto replay = [&](const std::string& line) {
    const StageTimes st = rep.run(line);
    collect(st, t);
    if (!st.hit && repeat.size() < kRepeatChecks)
      repeat.emplace_back(&line, st.sim);
    return st;
  };
  for (const std::string& l : priming) replay(l);
  rep.clear_reports();
  std::vector<JobTiming> jobs;
  jobs.reserve(lines.size());
  for (std::size_t k = 0; k < lines.size() && k < pass.records.size(); ++k) {
    const StageTimes st = replay(lines[k]);
    ++t.lookups;
    if (st.hit) ++t.hits;
    const LineSource::LineTimes& lt = pass.times[k];
    jobs.push_back({lt.due_ns, lt.read_ns, pass.records[k].written_ns,
                    lt.lag_ns, st.work()});
    t.lag_us.push_back(static_cast<double>(lt.lag_ns) * 1e-3);
  }
  t.accounting = account(jobs);
  const std::vector<double> latency_us = latencies_us(pass);
  t.latency_p99_us = quantile(latency_us, 0.99);
  if (!latency_us.empty()) t.backlog_ms = latency_us.back() * 1e-3;
  const std::int64_t t0 = now_ns();
  const std::string summary =
      armbar::obs::to_json(armbar::obs::aggregate(rep.reports()));
  t.aggregate_ms = seconds_since(t0) * 1e3;
  if (summary.empty()) throw std::logic_error("empty sweep summary");
  t.resolve_ns = rep.resolve_ns();
  for (int f = 0; f < 2; ++f)
    for (int h = 0; h < 2; ++h) t.ns_per_event[f][h] = rep.ns_per_event(f, h);
  t.counts = rep.counts();

  Replayer again;
  std::uint64_t bad = 0;
  for (const auto& [line, counts] : repeat)
    bad += again.run(*line).sim != counts;
  r.attempted += repeat.size();
  if (bad > 0) r.fail(bad, "sim counts did not repeat on a second simulation");
  return t;
}

struct NativeTrace {
  std::vector<double> arrival_ns, notification_ns, reference_us, episode_us;
  double unaccounted_ratio = 0.0;
  /// p99 over algorithms of each one's median EPCC overhead: the slowest
  /// barriers' typical cost (single-sample tails are host noise).
  double latency_p99_us = 0.0;
};

struct NativeRig {
  std::unique_ptr<ThreadTeam> team;
  std::vector<Algo> algos;
  std::vector<Barrier> barriers;
};

NativeRig make_native_rig() {
  NativeRig rig;
  rig.team = std::make_unique<ThreadTeam>(kNativeThreads);
  rig.algos = armbar::all_algos();
  for (const Algo a : rig.algos)
    rig.barriers.push_back(armbar::make_barrier(a, kNativeThreads));
  return rig;
}

/// One seeded round of EPCC samples: every algorithm once, in the order
/// @p rng draws, each handed to @p sample with its index in the rig.
template <class Sample>
void epcc_round(NativeRig& rig, Rng& rng, Sample&& sample) {
  armbar::epcc::EpccConfig cfg;
  cfg.inner_iterations = kNativeInner;
  cfg.outer_reps = 1;
  cfg.delay_cycles = kNativeDelay;
  for (const std::uint32_t i : permutation(rng, rig.algos.size()))
    sample(i, armbar::epcc::measure_overhead(rig.barriers[i], *rig.team, cfg));
}

/// Phase-split native samples: @p rounds seeded rounds, each sample
/// followed by a pass timing every barrier.wait(tid) from outside.
NativeTrace trace_native(NativeRig& rig, std::uint64_t seed, int rounds) {
  NativeTrace t;
  Rng rng = stream(seed, kNativePurpose);
  double attributed_us = 0.0;
  double total_us = 0.0;
  armbar::obs::NativePhaseLog log;
  std::vector<std::vector<double>> overhead_us(rig.algos.size());
  for (int round = 0; round < rounds; ++round) {
    epcc_round(rig, rng, [&](std::uint32_t i,
                             const armbar::epcc::EpccResult& ref) {
      Barrier& b = rig.barriers[i];
      t.reference_us.push_back(ref.reference_us_per_iter);
      overhead_us[i].push_back(ref.overhead_us);
      log.reset(kNativeThreads, kNativeInner);
      const std::int64_t t0 = now_ns();
      rig.team->run([&](int tid) {
        for (int e = 0; e < kNativeInner; ++e) {
          armbar::epcc::delay_work(kNativeDelay);
          const std::uint64_t enter = armbar::obs::NativePhaseLog::now_ns();
          b.wait(tid);
          log.record(tid, enter, armbar::obs::NativePhaseLog::now_ns());
        }
      });
      const double wall_us = seconds_since(t0) * 1e6;
      const auto split = log.mean_breakdown();
      t.arrival_ns.push_back(split.arrival_ns);
      t.notification_ns.push_back(split.notification_ns);
      for (int e = 0; e < log.complete_episodes(); ++e) {
        const auto ep = log.breakdown(e);
        t.episode_us.push_back((ep.arrival_ns + ep.notification_ns) * 1e-3);
      }
      attributed_us += kNativeInner * (ref.reference_us_per_iter +
                                       (split.arrival_ns +
                                        split.notification_ns) * 1e-3);
      total_us += wall_us;
    });
  }
  t.unaccounted_ratio = total_us > 0.0 ? 1.0 - attributed_us / total_us : 0.0;
  std::vector<double> medians;
  for (const std::vector<double>& v : overhead_us)
    medians.push_back(median(v));
  t.latency_p99_us = quantile(medians, 0.99);
  return t;
}

/// The native layers of a service trace: one round over every algorithm
/// on a fresh team.
NativeTrace native_probe(std::uint64_t seed) {
  NativeRig rig = make_native_rig();
  return trace_native(rig, seed, 1);
}

/// Every per-layer metric, from a service trace and a native trace; the
/// workload's own trace (native when @p native_workload) gives the
/// accounting residue and the ungated latency tail.
std::vector<Metric> layer_metrics(const ServiceTrace& s, const NativeTrace& n,
                                  bool native_workload) {
  std::vector<double> resolve_ms;
  for (const std::int64_t ns : s.resolve_ns)
    resolve_ms.push_back(static_cast<double>(ns) * 1e-6);
  return {
      {"svc.parse_us", median(s.parse_us), "us"},
      {"svc.cache_key_us", median(s.key_us), "us"},
      {"svc.cache_find_us", median(s.find_us), "us"},
      {"svc.handoff_us", median(s.accounting.handoff_us), "us"},
      {"svc.cache_insert_us", median(s.insert_us), "us"},
      {"svc.cache_hit_ratio",
       s.lookups == 0 ? 0.0
                      : static_cast<double>(s.hits) /
                            static_cast<double>(s.lookups),
       "ratio"},
      {"svc.emit_wait_us", median(s.accounting.emit_wait_us), "us"},
      {"topo.resolve_ms", median(resolve_ms), "ms"},
      {"simbar.measure_us", median(s.measure_us), "us"},
      {"fault.plan_us", median(s.plan_us), "us"},
      {"obs.make_metrics_us", median(s.metrics_us), "us"},
      {"sim.ns_per_event", s.ns_per_event[0][0], "ns"},
      {"sim.ns_per_event_faulted", s.ns_per_event[1][0], "ns"},
      {"sim.ns_per_event_hier", s.ns_per_event[0][1], "ns"},
      {"sim.events", static_cast<double>(s.counts.events), "count"},
      {"sim.mem_ops", static_cast<double>(s.counts.mem_ops), "count"},
      {"sim.remote_transfers", static_cast<double>(s.counts.remote_transfers),
       "count"},
      {"sim.rfo_invalidations",
       static_cast<double>(s.counts.rfo_invalidations), "count"},
      {"obs.aggregate_ms", s.aggregate_ms, "ms"},
      {"barriers.arrival_ns", median(n.arrival_ns), "ns"},
      {"barriers.notification_ns", median(n.notification_ns), "ns"},
      {"epcc.reference_us", median(n.reference_us), "us"},
      {"epcc.episode_p90_us", quantile(n.episode_us, 0.9), "us"},
      {"bench.generator_lag_us", quantile(s.lag_us, 0.99), "us"},
      {"bench.unaccounted_ratio",
       native_workload ? n.unaccounted_ratio : s.accounting.unaccounted_ratio,
       "ratio"},
      {"bench.latency_p99_us",
       native_workload ? n.latency_p99_us : s.latency_p99_us, "us"},
      {"bench.backlog_ms", s.backlog_ms, "ms"},
  };
}

std::vector<Metric> end_to_end(double throughput, double p50, double rss_mb,
                               const std::vector<double>& setup_s) {
  std::cerr << "set-up: " << setup_s.size() << " samples, min "
            << quantile(setup_s, 0) << " s, median " << median(setup_s)
            << " s, max " << quantile(setup_s, 1) << " s\n";
  return {{"throughput_per_s", throughput, "1/s"},
          {"latency_p50_us", p50, "us"},
          {"peak_rss_mb", rss_mb, "MB"},
          {"setup_s", median(setup_s), "s"}};
}

// -- service workloads -------------------------------------------------------

/// A cold pass over @p jobs fresh cells from @p gen on a fresh service.
/// Lines are generated on demand; only a seeded sample (and, when
/// @p keep is set, every line) is retained for the checks and the replay.
struct ColdPass {
  Pass pass;
  std::vector<std::size_t> sample;
  std::vector<std::string> sample_lines;
};

ColdPass cold_pass(CellGenerator& gen, std::size_t jobs, Rng& sample_rng,
                   std::vector<std::string>* keep) {
  ColdPass c;
  const std::vector<std::uint32_t> perm = permutation(sample_rng, jobs);
  c.sample.assign(perm.begin(),
                  perm.begin() + static_cast<std::ptrdiff_t>(std::min(
                                     jobs, kColdSamplePerPass)));
  std::sort(c.sample.begin(), c.sample.end());
  std::size_t next_sample = 0;
  LineSource source(
      [&](std::size_t i, std::string& out) {
        if (i >= jobs) return false;
        out = job_line(gen.next());
        if (next_sample < c.sample.size() && c.sample[next_sample] == i) {
          c.sample_lines.push_back(out);
          ++next_sample;
        }
        if (keep != nullptr) keep->push_back(out);
        return true;
      },
      jobs);
  svc::SweepService service(service_options());
  c.pass = serve(service, source, jobs);
  return c;
}

void check_cold(const ColdPass& c, std::size_t jobs, RunResult& r) {
  r.attempted += jobs;
  check_stream(c.pass, jobs, r, "sweep-cold");
  const std::vector<std::uint64_t> ref = oneshot_digests(c.sample_lines);
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s < c.sample.size(); ++s) {
    const std::size_t k = c.sample[s];
    if (k >= c.pass.records.size() || c.pass.records[k].digest != ref[s])
      ++bad;
  }
  if (bad > 0)
    r.fail(bad, "sweep-cold: sampled records differ from run_oneshot");
}

RunResult run_cold(const RunOptions& o) {
  RunResult r;
  CellGenerator gen(stream(o.seed, kCellsPurpose).next());
  Rng sample_rng = stream(o.seed, kSamplePurpose);
  if (o.trace) {
    std::vector<std::string> lines;
    const ColdPass c = cold_pass(gen, kColdPassJobs, sample_rng, &lines);
    check_cold(c, kColdPassJobs, r);
    const ServiceTrace s = trace_service({}, lines, c.pass, r);
    r.metrics = layer_metrics(s, native_probe(o.seed), false);
    return r;
  }
  std::vector<double> setup, tput, p50;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    const svc::SweepService service(service_options());
    setup.push_back(seconds_since(t0));
  }
  double timed = 0.0;
  while (tput.size() < kMinPasses || timed < o.seconds) {
    const ColdPass c = cold_pass(gen, kColdPassJobs, sample_rng, nullptr);
    timed += c.pass.wall_s;
    tput.push_back(static_cast<double>(kColdPassJobs) / c.pass.wall_s);
    const std::vector<double> lat = latencies_us(c.pass);
    p50.push_back(median(lat));
    progress("sweep-cold", tput.size(), kColdPassJobs, c.pass.wall_s,
             p50.back());
    check_cold(c, kColdPassJobs, r);
  }
  r.metrics = end_to_end(median(tput), median(p50), peak_rss_mb(), setup);
  return r;
}

/// A primed service: the pool served once, its records' digests kept as
/// the reference every later answer for a pool cell must match.
struct Primed {
  std::unique_ptr<svc::SweepService> service;
  std::vector<std::uint64_t> digests;
};

/// Build and prime @p reps services (keeping the last), timing each
/// set-up into @p setup_s; every priming must give the same digests.
Primed prime(const std::vector<std::string>& pool, int reps,
             std::vector<double>& setup_s, RunResult& r) {
  Primed p;
  for (int rep = 0; rep < reps; ++rep) {
    p.service.reset();
    const std::int64_t t0 = now_ns();
    p.service = std::make_unique<svc::SweepService>(service_options());
    LineSource source = list_source(pool);
    const Pass pass = serve(*p.service, source, pool.size());
    setup_s.push_back(seconds_since(t0));
    r.attempted += pool.size();
    check_stream(pass, pool.size(), r, "priming");
    std::vector<std::uint64_t> d;
    for (const LineSink::Record& rec : pass.records) d.push_back(rec.digest);
    if (rep > 0 && d != p.digests)
      r.fail(pool.size(), "priming: set-ups answered the pool differently");
    p.digests = std::move(d);
  }
  p.digests.resize(pool.size(), 0);
  return p;
}

std::vector<std::string> pool_lines(CellGenerator& gen) {
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < kPoolCells; ++i)
    pool.push_back(job_line(gen.next()));
  return pool;
}

RunResult run_warm(const RunOptions& o) {
  RunResult r;
  CellGenerator gen(stream(o.seed, kPoolPurpose).next());
  const std::vector<std::string> pool = pool_lines(gen);
  std::vector<double> setup;
  const Primed primed = prime(pool, o.trace ? 1 : kPrimeSetupReps, setup, r);
  {
    // The pool itself must match the batch reference path.
    const std::vector<std::uint64_t> ref = oneshot_digests(pool);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < pool.size(); ++i)
      bad += ref[i] != primed.digests[i];
    if (bad > 0) r.fail(bad, "svc-warm: pool records differ from run_oneshot");
  }
  // One timed pass: kWarmPassJobs lines cycling through the pool, each
  // cycle in a fresh seeded order; every record must equal the priming
  // record of its cell.
  Rng order_rng = stream(o.seed, kOrderPurpose);
  std::vector<std::uint32_t> cell_of(kWarmPassJobs);
  const auto warm_pass = [&] {
    std::vector<std::uint32_t> perm;
    for (std::size_t k = 0; k < kWarmPassJobs; ++k) {
      if (k % pool.size() == 0) perm = permutation(order_rng, pool.size());
      cell_of[k] = perm[k % pool.size()];
    }
    LineSource source(
        [&](std::size_t i, std::string& out) {
          if (i >= kWarmPassJobs) return false;
          out = pool[cell_of[i]];
          return true;
        },
        kWarmPassJobs);
    Pass pass = serve(*primed.service, source, kWarmPassJobs);
    r.attempted += kWarmPassJobs;
    check_stream(pass, kWarmPassJobs, r, "svc-warm");
    std::uint64_t bad = 0;
    for (std::size_t k = 0; k < pass.records.size() && k < kWarmPassJobs; ++k)
      bad += pass.records[k].digest != primed.digests[cell_of[k]];
    if (bad > 0) r.fail(bad, "svc-warm: records differ from the priming pass");
    return pass;
  };

  if (o.trace) {
    const Pass pass = warm_pass();
    std::vector<std::string> lines;
    lines.reserve(kWarmPassJobs);
    for (const std::uint32_t c : cell_of) lines.push_back(pool[c]);
    const ServiceTrace s = trace_service(pool, lines, pass, r);
    r.metrics = layer_metrics(s, native_probe(o.seed), false);
    return r;
  }
  std::vector<double> tput, p50;
  double timed = 0.0;
  while (tput.size() < kMinPasses || timed < o.seconds) {
    const Pass pass = warm_pass();
    timed += pass.wall_s;
    tput.push_back(static_cast<double>(kWarmPassJobs) / pass.wall_s);
    const std::vector<double> lat = latencies_us(pass);
    p50.push_back(median(lat));
    progress("svc-warm", tput.size(), kWarmPassJobs, pass.wall_s, p50.back());
  }
  r.metrics = end_to_end(median(tput), median(p50), peak_rss_mb(), setup);
  return r;
}

RunResult run_paced(const RunOptions& o) {
  RunResult r;
  CellGenerator gen(stream(o.seed, kPoolPurpose).next());
  const std::vector<std::string> pool = pool_lines(gen);
  std::vector<double> setup;
  const Primed primed = prime(pool, o.trace ? 1 : kPrimeSetupReps, setup, r);

  // Arrivals: kPacedNewPerBlock of every kPacedBlock are new cells (drawn
  // from the pool's generator, so distinct from it), the rest uniform
  // repeats of the pool.  cell_of >= 0 is a pool index, < 0 a new cell.
  const auto jobs =
      static_cast<std::size_t>(std::llround(kPacedRate * o.seconds));
  Rng mix = stream(o.seed, kMixPurpose);
  std::vector<std::int32_t> cell_of(jobs);
  for (std::size_t b = 0; b < jobs; b += kPacedBlock) {
    const std::vector<std::uint32_t> perm = permutation(mix, kPacedBlock);
    for (std::size_t j = 0; j < kPacedBlock && b + j < jobs; ++j)
      cell_of[b + j] = perm[j] < kPacedNewPerBlock
                           ? -1
                           : static_cast<std::int32_t>(mix.below(pool.size()));
  }
  std::vector<std::string> fresh;  // new cells, in arrival order
  std::vector<std::string> lines;  // every line, for the traced replay
  const std::int64_t start_ns = now_ns() + 1'000'000;
  const std::vector<std::int64_t> due =
      poisson_schedule(o.seed, kPacedRate, jobs);
  LineSource source(
      [&](std::size_t i, std::string& out) {
        if (cell_of[i] >= 0) {
          out = pool[static_cast<std::size_t>(cell_of[i])];
        } else {
          cell_of[i] = -1 - static_cast<std::int32_t>(fresh.size());
          out = job_line(gen.next());
          fresh.push_back(out);
        }
        if (o.trace) lines.push_back(out);
        return true;
      },
      start_ns, due);
  const Pass pass = serve(*primed.service, source, jobs);
  const double rss = peak_rss_mb();

  r.attempted += jobs;
  check_stream(pass, jobs, r, "svc-paced");
  {
    // Every distinct cell, pool and new, against the batch reference path.
    std::vector<std::string> distinct = pool;
    distinct.insert(distinct.end(), fresh.begin(), fresh.end());
    const std::vector<std::uint64_t> ref = oneshot_digests(distinct);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < pool.size(); ++i)
      bad += ref[i] != primed.digests[i];
    for (std::size_t k = 0; k < pass.records.size() && k < jobs; ++k) {
      const std::int32_t c = cell_of[k];
      const std::size_t idx =
          c >= 0 ? static_cast<std::size_t>(c)
                 : pool.size() + static_cast<std::size_t>(-1 - c);
      bad += pass.records[k].digest != ref[idx];
    }
    if (bad > 0) r.fail(bad, "svc-paced: records differ from run_oneshot");
  }
  // The service keeps up when its last record follows the last arrival
  // by no more than a small margin; the jobs written later than that
  // count as failed.
  const std::int64_t last_due = start_ns + due.back();
  const std::int64_t end =
      pass.records.empty() ? last_due : pass.records.back().written_ns;
  const double offered = static_cast<double>(jobs) / (due.back() * 1e-9);
  const double served =
      static_cast<double>(jobs) / (static_cast<double>(end - start_ns) * 1e-9);
  std::cerr << "svc-paced: offered " << offered << " jobs/s, served "
            << served << " jobs/s, backlog at end "
            << static_cast<double>(end - last_due) * 1e-6 << " ms\n";
  if (end - last_due > kPacedBacklogMarginNs) {
    std::uint64_t late = 0;
    for (const LineSink::Record& rec : pass.records)
      late += rec.written_ns > last_due + kPacedBacklogMarginNs;
    r.fail(late, "svc-paced: the backlog grew; the service fell behind the "
                 "offered rate");
  }
  if (o.trace) {
    const ServiceTrace s = trace_service(pool, lines, pass, r);
    r.metrics = layer_metrics(s, native_probe(o.seed), false);
    return r;
  }
  r.metrics = end_to_end(served, median(latencies_us(pass)), rss, setup);
  return r;
}

// -- native barrier episodes -------------------------------------------------

/// Barrier-escape check: each thread publishes its episode number before
/// the wait and reads every peer's after it; a peer may be one episode
/// ahead, never behind.  Returns the number of bad reads.
std::uint64_t escape_failures(Barrier& b, ThreadTeam& team, int episodes) {
  std::array<std::atomic<int>, kNativeThreads> slot{};
  std::atomic<std::uint64_t> bad{0};
  team.run([&](int tid) {
    for (int e = 1; e <= episodes; ++e) {
      slot[static_cast<std::size_t>(tid)].store(e, std::memory_order_relaxed);
      b.wait(tid);
      for (const std::atomic<int>& s : slot) {
        const int v = s.load(std::memory_order_relaxed);
        if (v < e || v > e + 1) bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  return bad.load();
}

RunResult run_native(const RunOptions& o) {
  RunResult r;
  std::vector<double> setup;
  NativeRig rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig = NativeRig();
    const std::int64_t t0 = now_ns();
    rig = make_native_rig();
    setup.push_back(seconds_since(t0));
  }
  for (std::size_t i = 0; i < rig.algos.size(); ++i) {
    r.attempted += kEscapeEpisodes;
    const std::uint64_t bad =
        escape_failures(rig.barriers[i], *rig.team, kEscapeEpisodes);
    if (bad > 0)
      r.fail(bad, "native-epcc: " + armbar::to_string(rig.algos[i]) +
                      " let a thread escape its episode");
  }
  if (o.trace) {
    const NativeTrace n = trace_native(rig, o.seed, 3);
    // The service layers of a native trace come from a small cold probe.
    CellGenerator gen(stream(o.seed, kProbePurpose).next());
    Rng sample_rng = stream(o.seed, kSamplePurpose);
    std::vector<std::string> lines;
    const ColdPass c = cold_pass(gen, kProbeJobs, sample_rng, &lines);
    check_cold(c, kProbeJobs, r);
    r.metrics = layer_metrics(trace_service({}, lines, c.pass, r), n, true);
    return r;
  }
  // Medians over samples, like the medians over passes of the service
  // workloads, keep a sample whose thread was preempted from moving the
  // result.  Throughput counts barrier episodes per second of barrier
  // time (the overhead), not of the delay loop around it.
  Rng rng = stream(o.seed, kNativePurpose);
  std::vector<double> overhead_us;
  const std::int64_t t0 = now_ns();
  while (seconds_since(t0) < o.seconds)
    epcc_round(rig, rng,
               [&](std::uint32_t, const armbar::epcc::EpccResult& res) {
                 overhead_us.push_back(res.overhead_us);
               });
  const double p50 = median(overhead_us);
  r.metrics = end_to_end(1e6 / p50, p50, peak_rss_mb(), setup);
  return r;
}

}  // namespace

void RunResult::fail(std::uint64_t jobs, const std::string& why) {
  correct = false;
  failed += jobs;
  std::cerr << "check failed: " << why << "\n";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep-cold", "svc-warm",
                                                 "svc-paced", "native-epcc"};
  return names;
}

RunResult run_workload(const RunOptions& o) {
  if (o.workload == "sweep-cold") return run_cold(o);
  if (o.workload == "svc-warm") return run_warm(o);
  if (o.workload == "svc-paced") return run_paced(o);
  if (o.workload == "native-epcc") return run_native(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace e2e

// Tests for the parallel sweep driver: result ordering, worker-count
// independence (the determinism contract every figure binary relies on),
// input validation, and exception propagation.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "armbar/obs/aggregate.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/topo/platforms.hpp"

namespace armbar::simbar {
namespace {

SimRunConfig cfg_for(int threads) {
  SimRunConfig cfg;
  cfg.threads = threads;
  cfg.iterations = 20;
  cfg.warmup = 5;
  return cfg;
}

// A small but non-trivial job list: distinct algorithms and thread
// counts so every slot has a distinguishable result.
std::vector<SweepJob> sample_jobs(const topo::Machine& m) {
  std::vector<SweepJob> jobs;
  for (const Algo a : {Algo::kSense, Algo::kDissemination, Algo::kMcsTree})
    for (const int p : {2, 8, 16, 32})
      jobs.push_back({&m, sim_factory(a, {}), cfg_for(p)});
  return jobs;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.barrier_name, b.barrier_name);
  EXPECT_EQ(a.mean_overhead_ns, b.mean_overhead_ns);  // exact, not near
  EXPECT_EQ(a.per_episode_ns, b.per_episode_ns);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.stats.local_reads, b.stats.local_reads);
  EXPECT_EQ(a.stats.remote_reads, b.stats.remote_reads);
  EXPECT_EQ(a.stats.local_writes, b.stats.local_writes);
  EXPECT_EQ(a.stats.remote_writes, b.stats.remote_writes);
  EXPECT_EQ(a.stats.rmws, b.stats.rmws);
  EXPECT_EQ(a.stats.invalidations, b.stats.invalidations);
  EXPECT_EQ(a.stats.poll_reads, b.stats.poll_reads);
  EXPECT_EQ(a.stats.layer_transfers, b.stats.layer_transfers);
}

TEST(SweepDriver, DefaultWorkersAtLeastOne) {
  EXPECT_GE(SweepDriver::default_workers(), 1);
  EXPECT_GE(SweepDriver(0).workers(), 1);
  EXPECT_EQ(SweepDriver(3).workers(), 3);
}

TEST(SweepDriver, EmptyJobListYieldsEmptyResults) {
  EXPECT_TRUE(SweepDriver(2).run({}).empty());
}

TEST(SweepDriver, ResultsFollowJobOrder) {
  const auto m = topo::phytium2000();
  const auto jobs = sample_jobs(m);
  const auto results = SweepDriver(4).run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Slot i must hold the simulation of jobs[i]: re-run it in isolation
    // and compare exactly.
    const SimResult lone =
        measure_barrier(m, jobs[i].factory, jobs[i].cfg);
    expect_identical(results[i], lone);
  }
}

TEST(SweepDriver, WorkerCountDoesNotChangeResults) {
  const auto m = topo::thunderx2();
  const auto jobs = sample_jobs(m);
  const auto serial = SweepDriver(1).run(jobs);
  for (const int workers : {2, 4, 8}) {
    const auto pooled = SweepDriver(workers).run(jobs);
    ASSERT_EQ(pooled.size(), serial.size()) << workers;
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_identical(pooled[i], serial[i]);
  }
}

TEST(SweepDriver, RejectsNullMachineAndEmptyFactory) {
  const auto m = topo::phytium2000();
  const SweepDriver driver(2);
  {
    std::vector<SweepJob> jobs{{nullptr, sim_factory(Algo::kSense, {}),
                                cfg_for(2)}};
    EXPECT_THROW(driver.run(jobs), std::invalid_argument);
  }
  {
    std::vector<SweepJob> jobs{{&m, SimBarrierFactory{}, cfg_for(2)}};
    EXPECT_THROW(driver.run(jobs), std::invalid_argument);
  }
}

TEST(SweepDriver, PropagatesFirstJobExceptionByIndex) {
  const auto m = topo::phytium2000();
  // Jobs 1 and 3 throw (thread count beyond the machine); the driver must
  // rethrow the FIRST failing job's exception whatever the completion
  // order, and still with many workers.
  std::vector<SweepJob> jobs = {
      {&m, sim_factory(Algo::kSense, {}), cfg_for(4)},
      {&m, sim_factory(Algo::kSense, {}), cfg_for(10'000)},
      {&m, sim_factory(Algo::kSense, {}), cfg_for(8)},
      {&m, sim_factory(Algo::kSense, {}), cfg_for(20'000)},
  };
  for (const int workers : {1, 4}) {
    try {
      SweepDriver(workers).run(jobs);
      FAIL() << "expected invalid_argument with " << workers << " workers";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
    }
  }
}

TEST(SweepDriverMetrics, ResultsMatchPlainRunAndCarryReports) {
  const auto m = topo::phytium2000();
  const auto jobs = sample_jobs(m);
  const SweepDriver driver(4);
  const auto plain = driver.run(jobs);
  const auto metered = driver.run_with_metrics(jobs);
  ASSERT_EQ(metered.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Attaching a tracer must not perturb the simulation itself.
    expect_identical(metered[i].result, plain[i]);
    const obs::MetricsReport& r = metered[i].report;
    EXPECT_EQ(r.barrier_name, plain[i].barrier_name);
    EXPECT_EQ(r.threads, jobs[i].cfg.threads);
    EXPECT_GT(r.total_remote_transfers(), 0u);
    // Per-phase layer histograms reconcile with the run's own MemStats.
    const auto& totals = r.totals.layer_transfers;
    for (std::size_t l = 0; l < totals.size(); ++l) {
      std::uint64_t phase_sum = 0;
      for (const auto& pm : r.phases)
        if (l < pm.layer_transfers.size()) phase_sum += pm.layer_transfers[l];
      EXPECT_EQ(phase_sum, totals[l]) << r.barrier_name << " layer " << l;
    }
  }
}

TEST(SweepDriverMetrics, AggregatedJsonIdenticalForAnyWorkerCount) {
  // The acceptance bar from the issue: the aggregated sweep JSON must be
  // byte-for-byte identical for a serial driver and any pool size.
  const auto m = topo::kunpeng920();
  const auto jobs = sample_jobs(m);
  const std::string serial =
      obs::to_json(obs::aggregate(SweepDriver(1).run_with_metrics(jobs)));
  EXPECT_FALSE(serial.empty());
  for (const int workers : {2, 4, 8}) {
    const std::string pooled =
        obs::to_json(obs::aggregate(SweepDriver(workers).run_with_metrics(jobs)));
    EXPECT_EQ(pooled, serial) << workers << " workers";
  }
}

TEST(SweepDriverMetrics, CountersExactWithZeroTraceCapacity) {
  // trace_capacity 0 keeps no event/span log, but the counters feeding the
  // report must be exact: compare against a full-capacity run.
  const auto m = topo::thunderx2();
  std::vector<SweepJob> jobs{
      {&m, sim_factory(Algo::kStaticFway, {}), cfg_for(16)}};
  const SweepDriver driver(1);
  const auto lean = driver.run_with_metrics(jobs, 0);
  const auto full = driver.run_with_metrics(jobs, sim::Tracer::kDefaultCapacity);
  ASSERT_EQ(lean.size(), 1u);
  EXPECT_EQ(lean[0].report.trace_events, 0u);
  EXPECT_GT(full[0].report.trace_events, 0u);
  for (std::size_t p = 0; p < lean[0].report.phases.size(); ++p) {
    const auto& a = lean[0].report.phases[p];
    const auto& b = full[0].report.phases[p];
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.polls, b.polls);
    EXPECT_EQ(a.layer_transfers, b.layer_transfers);
    EXPECT_DOUBLE_EQ(a.span_ns, b.span_ns);
    EXPECT_DOUBLE_EQ(a.critical_span_ns, b.critical_span_ns);
  }
}

TEST(SweepDriverMetrics, RejectsCallerOwnedTracer) {
  const auto m = topo::phytium2000();
  sim::Tracer tracer;
  std::vector<SweepJob> jobs{
      {&m, sim_factory(Algo::kSense, {}), cfg_for(4), &tracer}};
  EXPECT_THROW(SweepDriver(2).run_with_metrics(jobs), std::invalid_argument);
}

}  // namespace
}  // namespace armbar::simbar

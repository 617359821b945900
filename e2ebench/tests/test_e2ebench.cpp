// Unit tests of the benchmark's own parts: the seeded generators, the
// paced schedule, the two stream ends, and the replay's accounting.
// Build and run:  python3 e2ebench/run.py --test

#include <gtest/gtest.h>

#include <istream>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "armbar/svc/job.hpp"
#include "armbar/svc/service.hpp"
#include "cells.hpp"
#include "io.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

std::vector<std::string> lines_of(std::uint64_t seed, std::size_t n) {
  e2e::CellGenerator gen(seed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(e2e::job_line(gen.next()));
  return out;
}

TEST(Generator, SameSeedSameStream) {
  EXPECT_EQ(lines_of(7, 400), lines_of(7, 400));
  EXPECT_NE(lines_of(7, 400), lines_of(8, 400));
}

TEST(Generator, StreamsArePurposeSeparated) {
  EXPECT_NE(e2e::stream(1, e2e::kCellsPurpose).next(),
            e2e::stream(1, e2e::kPoolPurpose).next());
  EXPECT_EQ(e2e::stream(1, e2e::kCellsPurpose).next(),
            e2e::stream(1, e2e::kCellsPurpose).next());
}

TEST(Generator, CellsAreDistinctValidJobs) {
  const std::vector<std::string> lines = lines_of(3, 2000);
  std::set<std::string> keys;
  for (const std::string& l : lines) {
    const armbar::svc::JobSpec spec = armbar::svc::parse_job_line(l);
    EXPECT_GE(spec.threads, 4);
    EXPECT_LE(spec.threads, 64);
    keys.insert(armbar::svc::cache_key(spec));
  }
  EXPECT_EQ(keys.size(), lines.size());
}

TEST(Generator, LongStreamsStayDistinct) {
  // Far more cells than a cold run draws: strata run out and the
  // generator falls back to whole-range draws instead of looping.
  const std::vector<std::string> lines = lines_of(4, 100000);
  EXPECT_EQ(std::set<std::string>(lines.begin(), lines.end()).size(),
            lines.size());
}

TEST(Generator, BlockCompositionIsFixed) {
  e2e::CellGenerator gen(11);
  for (int block = 0; block < 4; ++block) {
    int hier = 0, faulted = 0, threads = 0, iterations = 0;
    int family[5] = {};
    std::map<std::string, int> algos;
    for (int i = 0; i < e2e::CellGenerator::kBlock; ++i) {
      const e2e::Cell c = gen.next();
      hier += c.machine == "hier256";
      faulted += c.fault != e2e::FaultKind::kNone;
      ++family[static_cast<int>(c.fault)];
      ++algos[c.algo];
      threads += c.threads;
      iterations += c.iterations;
    }
    EXPECT_EQ(hier, 4);
    EXPECT_EQ(faulted, 16);
    for (int f = 1; f < 5; ++f) EXPECT_EQ(family[f], 4);
    EXPECT_EQ(algos.size(), e2e::sim_algos().size());
    for (const auto& [name, n] : algos) EXPECT_EQ(n, 4) << name;
    // Stratified: each block's sums sit within one stratum width of the
    // midpoint of the range, times the block size.
    EXPECT_NEAR(threads, 34.0 * e2e::CellGenerator::kBlock, 64);
    EXPECT_NEAR(iterations, 25.0 * e2e::CellGenerator::kBlock, 64);
  }
}

TEST(Generator, FaultedCellsCarryActivePlans) {
  e2e::CellGenerator gen(5);
  for (int i = 0; i < 256; ++i) {
    const e2e::Cell c = gen.next();
    const armbar::svc::JobSpec spec =
        armbar::svc::parse_job_line(e2e::job_line(c));
    EXPECT_EQ(spec.fault.any(), c.fault != e2e::FaultKind::kNone)
        << e2e::job_line(c);
  }
}

TEST(PacedSchedule, SeededSortedAndAtTheOfferedRate) {
  const auto a = e2e::poisson_schedule(42, 1000.0, 20000);
  EXPECT_EQ(a, e2e::poisson_schedule(42, 1000.0, 20000));
  EXPECT_NE(a, e2e::poisson_schedule(43, 1000.0, 20000));
  ASSERT_EQ(a.size(), 20000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  const double mean_gap_ns = static_cast<double>(a.back()) / 20000.0;
  EXPECT_NEAR(mean_gap_ns, 1e6, 0.03e6);
}

TEST(LineSource, HandsOutGeneratedLinesOnDemand) {
  std::size_t asked = 0;
  e2e::LineSource src(
      [&](std::size_t i, std::string& out) {
        ++asked;
        if (i >= 3) return false;
        out = "line" + std::to_string(i);
        return true;
      },
      3);
  std::istream in(&src);
  std::string l;
  ASSERT_TRUE(std::getline(in, l));
  EXPECT_EQ(l, "line0");
  EXPECT_EQ(asked, 1u);  // nothing generated ahead of the reader
  ASSERT_TRUE(std::getline(in, l));
  ASSERT_TRUE(std::getline(in, l));
  EXPECT_EQ(l, "line2");
  EXPECT_FALSE(std::getline(in, l));
  ASSERT_EQ(src.lines(), 3u);
  for (const auto& t : src.times()) {
    EXPECT_EQ(t.due_ns <= t.read_ns, true);
    EXPECT_GE(t.lag_ns, 0);
  }
}

TEST(LineSource, PacedLinesWaitUntilDue) {
  const std::int64_t start = e2e::now_ns() + 1'000'000;
  e2e::LineSource src(
      [](std::size_t, std::string& out) {
        out = "x";
        return true;
      },
      start, {0, 3'000'000, 6'000'000});
  std::istream in(&src);
  std::string l;
  int n = 0;
  while (std::getline(in, l)) ++n;
  EXPECT_EQ(n, 3);
  ASSERT_EQ(src.times().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& t = src.times()[i];
    EXPECT_EQ(t.due_ns, start + static_cast<std::int64_t>(i) * 3'000'000);
    EXPECT_GE(t.read_ns, t.due_ns);
    EXPECT_EQ(t.lag_ns, t.read_ns - t.due_ns);
  }
}

TEST(LineSink, CountsStampsAndDigestsRecords) {
  e2e::LineSink sink;
  std::ostream out(&sink);
  // Written the way the service writes: prefix, index, tail, newline.
  out << "{\"job\": " << 0 << ", \"machine\": \"a\"}" << '\n';
  out << "{\"job\": " << 1 << ", \"error\": {\"kind\": \"x\"}}\n{\"job\": 2";
  out << ", \"machine\": \"a\"}\n";
  out << "{\n  \"runs\": 2,\n}\n";
  out.flush();
  ASSERT_EQ(sink.records().size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(sink.records()[k].job, k);
  EXPECT_FALSE(sink.records()[0].error);
  EXPECT_TRUE(sink.records()[1].error);
  EXPECT_EQ(sink.records()[0].digest, sink.records()[2].digest);
  const std::string tail = ", \"machine\": \"a\"}";  // after the index
  EXPECT_EQ(sink.records()[0].digest, e2e::fnv1a(tail.data(), tail.size()));
  EXPECT_LE(sink.records()[0].written_ns, sink.records()[2].written_ns);
  EXPECT_EQ(sink.summary(), "{\n  \"runs\": 2,\n}\n");
}

TEST(LineSink, SeesEveryRecordOfARealService) {
  const std::vector<std::string> lines = lines_of(9, 24);
  armbar::svc::ServiceOptions o;
  o.workers = 2;
  armbar::svc::SweepService service(o);
  e2e::LineSource src(
      [&](std::size_t i, std::string& out) {
        if (i >= lines.size()) return false;
        out = lines[i];
        return true;
      },
      lines.size());
  e2e::LineSink sink;
  std::istream in(&src);
  std::ostream out(&sink);
  const auto stats = service.serve(in, out);
  EXPECT_EQ(stats.jobs, lines.size());
  ASSERT_EQ(sink.records().size(), lines.size());
  for (std::size_t k = 0; k < lines.size(); ++k) {
    EXPECT_EQ(sink.records()[k].job, k);
    EXPECT_FALSE(sink.records()[k].error);
    EXPECT_GE(sink.records()[k].written_ns, src.times()[k].read_ns);
  }
  EXPECT_NE(sink.summary().find("\"runs\": 24,"), std::string::npos);
}

TEST(Accounting, SplitsLatencyIntoWorkLagAndRest) {
  // due, read, written, lag, work (ns)
  const std::vector<e2e::JobTiming> jobs = {
      {0, 100, 1100, 100, 400},
      {1000, 1000, 3000, 0, 1000},
  };
  const e2e::Accounting a = e2e::account(jobs);
  ASSERT_EQ(a.handoff_us.size(), 2u);
  EXPECT_DOUBLE_EQ(a.handoff_us[0], 0.6);     // 1100 - 100 - 400
  EXPECT_DOUBLE_EQ(a.emit_wait_us[0], 0.7);   // 1100 - 0 - 400
  EXPECT_DOUBLE_EQ(a.handoff_us[1], 1.0);
  EXPECT_DOUBLE_EQ(a.emit_wait_us[1], 1.0);
  // Identity: work + lag + unaccounted share make up the total latency.
  const double total = 1100 + 2000;
  EXPECT_DOUBLE_EQ(a.unaccounted_ratio, 1.0 - (400 + 100 + 1000) / total);
  EXPECT_DOUBLE_EQ(e2e::account({}).unaccounted_ratio, 0.0);
}

TEST(Replayer, MirrorsTheCacheAndRepeatsCountsExactly) {
  const std::vector<std::string> lines = lines_of(21, 12);
  e2e::Replayer a, b;
  for (const std::string& l : lines) {
    const e2e::StageTimes st = a.run(l);
    EXPECT_FALSE(st.hit);
    EXPECT_GT(st.measure, 0);
    EXPECT_EQ(st.work(), st.parse + st.key + st.find + st.resolve + st.plan +
                             st.measure + st.metrics + st.insert);
    b.run(l);
  }
  const e2e::SimCounts first = a.counts();
  EXPECT_GT(first.events, 0u);
  EXPECT_EQ(first, b.counts());
  for (const std::string& l : lines) EXPECT_TRUE(a.run(l).hit);
  EXPECT_EQ(a.counts(), first);  // hits simulate nothing
  EXPECT_EQ(a.reports().size(), 2 * lines.size());
  std::set<std::string> machines;
  for (const std::string& l : lines)
    machines.insert(armbar::svc::parse_job_line(l).machine);
  EXPECT_EQ(a.resolve_ns().size(), machines.size());  // once per machine
}

}  // namespace

// Tests for the sweep-level metrics roll-up (obs::aggregate) and the
// shared phase-attribution vocabulary (span shares, bound classification,
// explanations) the autotuner builds its output on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "armbar/obs/aggregate.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/topo/platforms.hpp"

namespace armbar::obs {
namespace {

MetricsReport synthetic_report(const std::string& machine,
                               const std::string& barrier,
                               double arrival_span_ns,
                               double notification_span_ns) {
  MetricsReport r;
  r.machine_name = machine;
  r.barrier_name = barrier;
  r.threads = 4;
  r.iterations = 8;
  r.mean_overhead_ns = arrival_span_ns + notification_span_ns;
  r.layer_names = {"intra", "inter"};
  r.phases.resize(static_cast<std::size_t>(kNumPhases));
  for (int p = 0; p < kNumPhases; ++p)
    r.phases[static_cast<std::size_t>(p)].phase = static_cast<Phase>(p);
  auto& arrival = r.phases[static_cast<std::size_t>(Phase::kArrival)];
  arrival.span_ns = arrival_span_ns;
  arrival.reads = 10;
  arrival.layer_transfers = {6, 2};
  arrival.remote_transfers = 8;
  auto& notification = r.phases[static_cast<std::size_t>(Phase::kNotification)];
  notification.span_ns = notification_span_ns;
  notification.writes = 5;
  notification.layer_transfers = {1, 4};
  notification.remote_transfers = 5;
  r.totals.invalidations = 3;
  r.totals.layer_transfers = {7, 6};
  return r;
}

TEST(Bound, NamesAreStable) {
  EXPECT_STREQ(to_string(Bound::kBalanced), "balanced");
  EXPECT_STREQ(to_string(Bound::kArrivalBound), "arrival-bound");
  EXPECT_STREQ(to_string(Bound::kNotificationBound), "notification-bound");
}

TEST(SpanShares, NormalizeAndHandleEmptyRuns) {
  const auto r = synthetic_report("m", "b", 300.0, 100.0);
  const PhaseShares s = span_shares(r);
  EXPECT_DOUBLE_EQ(s.arrival, 0.75);
  EXPECT_DOUBLE_EQ(s.notification, 0.25);
  EXPECT_DOUBLE_EQ(s.other, 0.0);

  MetricsReport empty;
  empty.phases.resize(static_cast<std::size_t>(kNumPhases));
  const PhaseShares zero = span_shares(empty);
  EXPECT_DOUBLE_EQ(zero.arrival, 0.0);
  EXPECT_DOUBLE_EQ(zero.notification, 0.0);
}

TEST(Classify, ThresholdAndTieBreak) {
  EXPECT_EQ(classify({0.75, 0.25, 0.0}), Bound::kArrivalBound);
  EXPECT_EQ(classify({0.25, 0.75, 0.0}), Bound::kNotificationBound);
  EXPECT_EQ(classify({0.5, 0.5, 0.0}), Bound::kBalanced);
  // Both at threshold: arrival wins (the paper's first optimization
  // target).
  EXPECT_EQ(classify({0.5, 0.5, 0.0}, 0.5), Bound::kArrivalBound);
  // Custom threshold.
  EXPECT_EQ(classify({0.6, 0.4, 0.0}, 0.7), Bound::kBalanced);
}

TEST(Explain, NamesPhaseShareAndDominantLayer) {
  const auto r = synthetic_report("m", "b", 300.0, 100.0);
  const std::string why = explain(r);
  EXPECT_NE(why.find("arrival-bound"), std::string::npos) << why;
  EXPECT_NE(why.find("75%"), std::string::npos) << why;
  // Arrival's transfers are 6 intra + 2 inter: the highest layer holds
  // only 25% >= 20%, so L1 ("inter") is called out as the dominant hop.
  EXPECT_NE(why.find("L1"), std::string::npos) << why;
  EXPECT_NE(why.find("inter"), std::string::npos) << why;
}

TEST(Explain, NeverEmptyEvenWithoutSpans) {
  MetricsReport empty;
  empty.phases.resize(static_cast<std::size_t>(kNumPhases));
  const std::string why = explain(empty);
  EXPECT_FALSE(why.empty());
  EXPECT_NE(why.find("no phase spans"), std::string::npos) << why;
}

TEST(Aggregate, RowsPreserveOrderAndMachinesFirstOccurrence) {
  const std::vector<MetricsReport> reports = {
      synthetic_report("B", "x", 100.0, 100.0),
      synthetic_report("A", "y", 200.0, 100.0),
      synthetic_report("B", "z", 100.0, 300.0),
  };
  const SweepSummary s = aggregate(reports);
  ASSERT_EQ(s.rows.size(), 3u);
  EXPECT_EQ(s.rows[0].barrier, "x");
  EXPECT_EQ(s.rows[1].barrier, "y");
  EXPECT_EQ(s.rows[2].barrier, "z");
  ASSERT_EQ(s.machines.size(), 2u);
  EXPECT_EQ(s.machines[0].machine, "B");
  EXPECT_EQ(s.machines[1].machine, "A");
  EXPECT_EQ(s.machines[0].runs, 2);
  EXPECT_EQ(s.machines[1].runs, 1);
  // Machine totals sum the per-run phase histograms.
  const auto& arrival = s.machines[0].phase_layer_transfers[static_cast<
      std::size_t>(Phase::kArrival)];
  EXPECT_EQ(arrival[0], 12u);  // 6 + 6
  EXPECT_EQ(arrival[1], 4u);   // 2 + 2
  // Per-row derived metrics.
  EXPECT_EQ(s.rows[0].total_ops, 15u);
  EXPECT_EQ(s.rows[0].remote_transfers, 13u);
  EXPECT_DOUBLE_EQ(s.rows[0].rfo_per_kop, 200.0);  // 3 per 15 ops
}

TEST(Aggregate, JsonAndTableRender) {
  const std::vector<MetricsReport> reports = {
      synthetic_report("m1", "bar\"rier", 300.0, 100.0)};
  const SweepSummary s = aggregate(reports);
  const std::string json = to_json(s);
  EXPECT_EQ(json.front(), '{');
  for (const char* key :
       {"\"runs\"", "\"rows\"", "\"machines\"", "\"span_shares\"",
        "\"phase_layer_transfers\"", "\"rfo_per_kop\"", "\"trace\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // The quote in the barrier name is escaped, never raw.
  EXPECT_NE(json.find("bar\\\"rier"), std::string::npos);

  const std::string table = to_table(s);
  EXPECT_NE(table.find("bound"), std::string::npos);
  EXPECT_NE(table.find("rfo/kop"), std::string::npos);
  EXPECT_NE(table.find("other"), std::string::npos);
}

TEST(Aggregate, AccumulateFoldMatchesAggregate) {
  // A streaming consumer folds reports one at a time; the summary must
  // be byte-identical to aggregating the whole list.  Mixed machines
  // (synthetic and real, interleaved) exercise first-occurrence order and
  // per-machine layer tables of different widths.
  std::vector<MetricsReport> reports = {
      synthetic_report("B", "x", 100.0, 100.0),
      synthetic_report("A", "y", 200.0, 100.0),
  };
  const auto kunpeng = topo::kunpeng920();
  const auto thunderx2 = topo::thunderx2();
  std::vector<simbar::SweepJob> jobs;
  for (const topo::Machine* m : {&kunpeng, &thunderx2, &kunpeng}) {
    simbar::SimRunConfig cfg;
    cfg.threads = 8;
    cfg.iterations = 4;
    cfg.warmup = 1;
    jobs.push_back({m, simbar::sim_factory(Algo::kDissemination, {}), cfg});
  }
  for (const auto& run : simbar::SweepDriver(1).run_with_metrics(jobs))
    reports.push_back(run.report);
  reports.push_back(synthetic_report("B", "z", 100.0, 300.0));

  SweepSummary folded;
  for (const MetricsReport& r : reports) accumulate(folded, r);
  EXPECT_EQ(to_json(folded), to_json(aggregate(reports)));
  EXPECT_EQ(folded.machines.size(), 4u);
}

TEST(Aggregate, RealSweepRoundTrip) {
  // End-to-end: run a small real sweep with metrics and aggregate it.
  const auto m = topo::kunpeng920();
  std::vector<simbar::SweepJob> jobs;
  for (const Algo a : {Algo::kStaticFway, Algo::kSense}) {
    simbar::SimRunConfig cfg;
    cfg.threads = 16;
    cfg.iterations = 8;
    cfg.warmup = 2;
    jobs.push_back({&m, simbar::sim_factory(a, {}), cfg});
  }
  const auto runs = simbar::SweepDriver(2).run_with_metrics(jobs);
  const SweepSummary s = aggregate(runs);
  ASSERT_EQ(s.rows.size(), 2u);
  ASSERT_EQ(s.machines.size(), 1u);
  EXPECT_EQ(s.machines[0].runs, 2);
  for (const auto& row : s.rows) {
    EXPECT_GT(row.mean_overhead_ns, 0.0) << row.barrier;
    EXPECT_GT(row.remote_transfers, 0u) << row.barrier;
    // Shares of an annotated barrier run must be meaningful.
    EXPECT_GT(row.shares.arrival + row.shares.notification, 0.9)
        << row.barrier;
  }
  // The machine's layer totals reconcile with the per-row sums.
  for (std::size_t l = 0; l < s.machines[0].layer_names.size(); ++l) {
    std::uint64_t phase_sum = 0;
    for (int p = 0; p < kNumPhases; ++p)
      phase_sum +=
          s.machines[0].phase_layer_transfers[static_cast<std::size_t>(p)][l];
    std::uint64_t row_sum = 0;
    for (const auto& row : s.rows)
      row_sum += l < row.layer_transfers.size() ? row.layer_transfers[l] : 0;
    EXPECT_EQ(phase_sum, row_sum) << "layer " << l;
  }
}

}  // namespace
}  // namespace armbar::obs

// Tests for the sweep-level metrics roll-up (obs::aggregate) and the
// shared phase-attribution vocabulary (span shares, bound classification,
// explanations) the autotuner builds its output on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
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

// -- the stream renderer to_json replaced --------------------------------
//
// A test-only copy of the ostringstream renderer, kept as the oracle for
// to_json's string appender: same classic-locale stream, same escaping,
// doubles as the classic stream prints them (non-finite as null).

std::string stream_escaped(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string stream_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << v;
  return os.str();
}

std::string stream_to_json(const SweepSummary& s) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\n";
  os << "  \"runs\": " << s.rows.size() << ",\n";
  os << "  \"rows\": [";
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    const SweepSummary::Row& r = s.rows[i];
    if (i > 0) os << ',';
    os << "\n    {\n";
    os << "      \"machine\": \"" << stream_escaped(r.machine) << "\",\n";
    os << "      \"barrier\": \"" << stream_escaped(r.barrier) << "\",\n";
    os << "      \"threads\": " << r.threads << ",\n";
    os << "      \"iterations\": " << r.iterations << ",\n";
    os << "      \"mean_overhead_ns\": " << stream_num(r.mean_overhead_ns)
       << ",\n";
    os << "      \"bound\": \"" << to_string(r.bound) << "\",\n";
    os << "      \"span_shares\": {\"arrival\": "
       << stream_num(r.shares.arrival)
       << ", \"notification\": " << stream_num(r.shares.notification)
       << ", \"other\": " << stream_num(r.shares.other) << "},\n";
    os << "      \"total_ops\": " << r.total_ops << ",\n";
    os << "      \"remote_transfers\": " << r.remote_transfers << ",\n";
    os << "      \"rfo_invalidations\": " << r.rfo_invalidations << ",\n";
    os << "      \"rfo_per_kop\": " << stream_num(r.rfo_per_kop) << ",\n";
    os << "      \"layer_transfers\": [";
    for (std::size_t l = 0; l < r.layer_transfers.size(); ++l) {
      if (l > 0) os << ',';
      os << r.layer_transfers[l];
    }
    os << "]\n    }";
  }
  os << "\n  ],\n";
  os << "  \"machines\": [";
  for (std::size_t i = 0; i < s.machines.size(); ++i) {
    const SweepSummary::MachineTotals& m = s.machines[i];
    if (i > 0) os << ',';
    os << "\n    {\n";
    os << "      \"machine\": \"" << stream_escaped(m.machine) << "\",\n";
    os << "      \"runs\": " << m.runs << ",\n";
    os << "      \"layers\": [";
    for (std::size_t l = 0; l < m.layer_names.size(); ++l) {
      if (l > 0) os << ',';
      os << "\"" << stream_escaped(m.layer_names[l]) << "\"";
    }
    os << "],\n";
    os << "      \"phase_layer_transfers\": {";
    for (int p = 0; p < kNumPhases; ++p) {
      if (p > 0) os << ", ";
      os << "\"" << to_string(static_cast<Phase>(p)) << "\": [";
      const auto& v = m.phase_layer_transfers[static_cast<std::size_t>(p)];
      for (std::size_t l = 0; l < v.size(); ++l) {
        if (l > 0) os << ',';
        os << v[l];
      }
      os << "]";
    }
    os << "},\n";
    os << "      \"total_ops\": " << m.total_ops << ",\n";
    os << "      \"rfo_invalidations\": " << m.rfo_invalidations << "\n";
    os << "    }";
  }
  os << "\n  ],\n";
  os << "  \"trace\": {\"dropped_events\": " << s.dropped_events
     << ", \"dropped_spans\": " << s.dropped_spans << "}\n";
  os << "}\n";
  return os.str();
}

/// Comma decimal point and '.'-grouped thousands: a stream left on the
/// global locale would print 1234.5 as "1.234,5".
struct CommaDecimalPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Swaps in the comma-decimal locale for the duration of a scope.
struct GlobalLocaleGuard {
  std::locale previous;
  GlobalLocaleGuard()
      : previous(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimalPunct))) {}
  ~GlobalLocaleGuard() { std::locale::global(previous); }
};

/// A seeded random summary: names that need escapes, NaN/Inf and huge or
/// tiny doubles, empty and ragged layer vectors, several machines.
SweepSummary random_summary(std::mt19937_64& rng, std::size_t rows) {
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  const auto name = [&] {
    static const char alphabet[] =
        "abcXYZ019 _-+./\"\\\b\f\n\r\t\x01\x1f\x7f\xc3\xa9";
    std::string out;
    const std::size_t len = below(24);
    for (std::size_t i = 0; i < len; ++i)
      out += alphabet[below(sizeof alphabet - 1)];
    return out;
  };
  const auto number = [&]() -> double {
    switch (below(8)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return below(2) ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
      case 2: return 0.0;
      case 3: return static_cast<double>(below(10'000'000));
      case 4: return std::ldexp(static_cast<double>(rng() >> 11),
                                static_cast<int>(below(200)) - 150);
      default: return static_cast<double>(rng() >> 11) / (1ull << 53);
    }
  };
  const auto counts = [&] {
    std::vector<std::uint64_t> v(below(6));
    for (auto& x : v) x = below(3) ? below(5000) : rng();
    return v;
  };
  SweepSummary s;
  for (std::size_t i = 0; i < rows; ++i) {
    SweepSummary::Row r;
    r.machine = name();
    r.barrier = name();
    r.threads = static_cast<int>(below(5000)) - 10;
    r.iterations = static_cast<int>(rng());
    r.mean_overhead_ns = number();
    r.shares = {number(), number(), number()};
    r.bound = static_cast<Bound>(below(3));
    r.total_ops = rng();
    r.remote_transfers = below(100000);
    r.rfo_invalidations = rng() >> below(64);
    r.rfo_per_kop = number();
    r.layer_transfers = counts();
    s.rows.push_back(std::move(r));
  }
  const std::size_t machines = below(4);
  for (std::size_t i = 0; i < machines; ++i) {
    SweepSummary::MachineTotals m;
    m.machine = name();
    for (std::size_t l = below(5); l > 0; --l) m.layer_names.push_back(name());
    for (int p = 0; p < kNumPhases; ++p)
      m.phase_layer_transfers.push_back(counts());
    m.total_ops = rng();
    m.rfo_invalidations = below(1000);
    m.runs = static_cast<int>(below(100000));
    s.machines.push_back(std::move(m));
  }
  s.dropped_events = below(2) ? 0 : rng();
  s.dropped_spans = below(1000);
  return s;
}

TEST(Aggregate, JsonMatchesStreamRenderer) {
  std::mt19937_64 rng(2024);
  std::vector<SweepSummary> summaries;
  summaries.push_back(SweepSummary{});  // 0 rows, no machines
  for (const std::size_t rows : {0, 1, 2, 3, 7, 40, 200})
    for (int rep = 0; rep < 6; ++rep)
      summaries.push_back(random_summary(rng, rows));
  for (const SweepSummary& s : summaries)
    ASSERT_EQ(to_json(s), stream_to_json(s));

  GlobalLocaleGuard guard;
  for (const SweepSummary& s : summaries)
    ASSERT_EQ(to_json(s), stream_to_json(s)) << "under a comma-decimal locale";
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

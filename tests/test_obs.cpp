// Tests for the observability layer: phase metrics, the Perfetto export,
// and the native phase log.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "../src/obs/json_util.hpp"
#include "armbar/obs/metrics.hpp"
#include "armbar/obs/native_phase.hpp"
#include "armbar/obs/perfetto.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/topo/platforms.hpp"

namespace armbar::obs {
namespace {

TEST(Phase, Names) {
  EXPECT_STREQ(to_string(Phase::kNone), "none");
  EXPECT_STREQ(to_string(Phase::kArrival), "arrival");
  EXPECT_STREQ(to_string(Phase::kNotification), "notification");
}

/// One traced run of a real barrier on a real machine model — the golden
/// scenario the layer-accounting invariants are asserted on.
struct TracedRun {
  topo::Machine machine;
  simbar::SimRunConfig cfg;
  sim::Tracer tracer;
  simbar::SimResult result;

  TracedRun(Algo algo, int threads, topo::Machine m)
      : machine(std::move(m)) {
    cfg.threads = threads;
    cfg.iterations = 6;
    cfg.warmup = 2;
    result = simbar::measure_barrier(
        machine,
        simbar::sim_factory(algo,
                            {.cluster_size = machine.cluster_size()}),
        cfg, &tracer);
  }
};

TEST(Metrics, LayerHistogramsSumExactlyToMemStats) {
  // The acceptance invariant: per-phase layer histograms sum — per layer,
  // across phases — to the memory system's own transfer counts, for every
  // algorithm family (counter, flag, tree, dissemination).
  for (const Algo algo : {Algo::kSense, Algo::kDissemination, Algo::kMcsTree,
                          Algo::kStaticFway, Algo::kOptimized}) {
    TracedRun run(algo, 16, topo::phytium2000());
    const MetricsReport report =
        make_metrics(run.machine, run.cfg, run.result, run.tracer);

    const auto& totals = report.totals.layer_transfers;
    ASSERT_EQ(report.phases.size(),
              static_cast<std::size_t>(kNumPhases));
    for (std::size_t l = 0; l < totals.size(); ++l) {
      std::uint64_t phase_sum = 0;
      for (const PhaseMetrics& m : report.phases)
        if (l < m.layer_transfers.size()) phase_sum += m.layer_transfers[l];
      EXPECT_EQ(phase_sum, totals[l])
          << report.barrier_name << " layer " << l;
    }
    // And nothing beyond the machine's layer count was ever attributed.
    for (const PhaseMetrics& m : report.phases)
      for (std::size_t l = totals.size(); l < m.layer_transfers.size(); ++l)
        EXPECT_EQ(m.layer_transfers[l], 0u);
  }
}

TEST(Metrics, OperationCountsSumToMemStats) {
  TracedRun run(Algo::kStaticFway, 16, topo::kunpeng920());
  const MetricsReport r =
      make_metrics(run.machine, run.cfg, run.result, run.tracer);
  std::uint64_t reads = 0, writes = 0, rmws = 0, polls = 0, rfos = 0;
  for (const PhaseMetrics& m : r.phases) {
    reads += m.reads;
    writes += m.writes;
    rmws += m.rmws;
    polls += m.polls;
    rfos += m.rfo_invalidations;
  }
  // MemStats counts polls as reads too (poll_reads is a subset marker),
  // while the tracer classifies each read as exactly one of read/poll.
  EXPECT_EQ(reads + polls, r.totals.local_reads + r.totals.remote_reads);
  EXPECT_EQ(writes, r.totals.local_writes + r.totals.remote_writes);
  EXPECT_EQ(rmws, r.totals.rmws);
  EXPECT_EQ(polls, r.totals.poll_reads);
  EXPECT_EQ(rfos, r.totals.invalidations);
}

TEST(Metrics, ReportCarriesRunMetadata) {
  TracedRun run(Algo::kOptimized, 8, topo::kunpeng920());
  const MetricsReport r =
      make_metrics(run.machine, run.cfg, run.result, run.tracer);
  EXPECT_EQ(r.machine_name, "Kunpeng920");
  EXPECT_EQ(r.threads, 8);
  EXPECT_EQ(r.iterations, 6);
  EXPECT_GT(r.mean_overhead_ns, 0.0);
  EXPECT_EQ(r.layer_names.size(),
            static_cast<std::size_t>(run.machine.num_layers()));
  EXPECT_EQ(r.trace_events, run.tracer.events().size());
  EXPECT_EQ(r.trace_spans, run.tracer.spans().size());
  EXPECT_GT(r.total_remote_transfers(), 0u);
  // Barrier work happens in phases: arrival and notification both busy.
  EXPECT_GT(r.phases[static_cast<std::size_t>(Phase::kArrival)].span_ns, 0.0);
  EXPECT_GT(
      r.phases[static_cast<std::size_t>(Phase::kNotification)].span_ns, 0.0);
}

TEST(Metrics, JsonAndTableRender) {
  TracedRun run(Algo::kSense, 4, topo::kunpeng920());
  const MetricsReport r =
      make_metrics(run.machine, run.cfg, run.result, run.tracer);
  const std::string json = to_json(r);
  EXPECT_EQ(json.front(), '{');
  for (const char* key :
       {"\"machine\"", "\"barrier\"", "\"phases\"", "\"layer_transfers\"",
        "\"rfo_invalidations\"", "\"span_ns\"", "\"dropped_events\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_NE(json.find("\"phase\": \"arrival\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"notification\""), std::string::npos);
}

TEST(Metrics, CriticalSpanIsPositiveAndBelowTotalSpan) {
  // The per-episode critical span (the prune floor the autotuner keys on)
  // must exist for both phases of an annotated barrier and sit strictly
  // below the all-cores/all-episodes span sum.
  TracedRun run(Algo::kStaticFway, 16, topo::phytium2000());
  const MetricsReport r =
      make_metrics(run.machine, run.cfg, run.result, run.tracer);
  for (const Phase p : {Phase::kArrival, Phase::kNotification}) {
    const PhaseMetrics& m = r.phases[static_cast<std::size_t>(p)];
    EXPECT_GT(m.critical_span_ns, 0.0) << to_string(p);
    EXPECT_LT(m.critical_span_ns, m.span_ns) << to_string(p);
  }
}

TEST(Metrics, LayersTableRowsReconcile) {
  // Unattributed (Phase::kNone) transfers close the per-layer identity:
  // arrival + notification + other == total, per layer.
  TracedRun run(Algo::kOptimized, 16, topo::kunpeng920());
  const MetricsReport r =
      make_metrics(run.machine, run.cfg, run.result, run.tracer);
  const auto at = [&](Phase p, std::size_t l) -> std::uint64_t {
    const auto& v = r.phases[static_cast<std::size_t>(p)].layer_transfers;
    return l < v.size() ? v[l] : 0;
  };
  for (std::size_t l = 0; l < r.totals.layer_transfers.size(); ++l)
    EXPECT_EQ(at(Phase::kArrival, l) + at(Phase::kNotification, l) +
                  at(Phase::kNone, l),
              r.totals.layer_transfers[l])
        << "layer " << l;
}

/// Locale whose numeric formatting would corrupt JSON if it leaked in:
/// comma decimal point, dot thousands separator, 3-digit grouping.
struct CommaDecimalPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Swaps in the hostile locale for the duration of a test.
struct GlobalLocaleGuard {
  std::locale previous;
  GlobalLocaleGuard()
      : previous(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimalPunct))) {}
  ~GlobalLocaleGuard() { std::locale::global(previous); }
};

TEST(Metrics, JsonIsLocaleIndependent) {
  TracedRun run(Algo::kSense, 8, topo::kunpeng920());
  const MetricsReport r =
      make_metrics(run.machine, run.cfg, run.result, run.tracer);
  const std::string reference = to_json(r);
  {
    GlobalLocaleGuard guard;
    EXPECT_EQ(to_json(r), reference);
  }
  // The overhead value itself is a plain JSON number: digits, dot,
  // exponent — no grouped thousands, no comma decimal point.
  const std::string key = "\"mean_overhead_ns\": ";
  const std::size_t at = reference.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = reference.find_first_of(",\n", at + key.size());
  const std::string value =
      reference.substr(at + key.size(), end - at - key.size());
  EXPECT_EQ(value.find_first_not_of("0123456789.eE+-"), std::string::npos)
      << value;
}

TEST(Metrics, JsonNumMatchesClassicStream) {
  std::vector<double> values = {
      0.0,      -0.0,         1.0,      -1.0,    0.1,    1e-5,   1e-4,
      123456.5, 999999.5,     1234567., 5e-324,  1e300,  -1e300, 2.5,
      1117.41,  1.0 / 3.0,    std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min()};
  std::mt19937_64 rng(7);
  while (values.size() < 20000) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
  }
  const auto classic = [](double v) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << v;
    return os.str();
  };
  for (const double v : values) ASSERT_EQ(detail::json_num(v), classic(v));
  GlobalLocaleGuard guard;
  for (const double v : values) ASSERT_EQ(detail::json_num(v), classic(v));
}

TEST(Metrics, NonFiniteValuesSerializeAsNull) {
  MetricsReport r;
  r.machine_name = "m";
  r.barrier_name = "b";
  r.mean_overhead_ns = std::numeric_limits<double>::quiet_NaN();
  PhaseMetrics pm;
  pm.phase = Phase::kArrival;
  pm.busy_ns = std::numeric_limits<double>::infinity();
  pm.span_ns = -std::numeric_limits<double>::infinity();
  r.phases.push_back(pm);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"mean_overhead_ns\": null"), std::string::npos);
  EXPECT_NE(json.find("\"busy_ns\": null"), std::string::npos);
  EXPECT_NE(json.find("\"span_ns\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Metrics, ControlCharactersAreEscaped) {
  MetricsReport r;
  r.machine_name = std::string("bad\x01name\x1f") + "\ttab";
  r.barrier_name = "quote\"back\\slash\nnewline";
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  // No raw control character survives into the output.
  for (const char ch : json)
    EXPECT_TRUE(static_cast<unsigned char>(ch) >= 0x20 || ch == '\n')
        << "raw control char " << static_cast<int>(ch);
}

TEST(Perfetto, EmitsPhaseAndMemTracksWithMetadata) {
  TracedRun run(Algo::kStaticFway, 4, topo::kunpeng920());
  const std::string json = to_perfetto_json(run.tracer);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mem\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"arrival"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"notification"), std::string::npos);

  // Filtered exports drop the corresponding category entirely.
  const std::string phases_only =
      to_perfetto_json(run.tracer, {.include_mem_ops = false});
  EXPECT_EQ(phases_only.find("\"cat\":\"mem\""), std::string::npos);
  const std::string mem_only =
      to_perfetto_json(run.tracer, {.include_phase_spans = false});
  EXPECT_EQ(mem_only.find("\"cat\":\"phase\""), std::string::npos);
}

TEST(Perfetto, EmptyTracerYieldsValidSkeleton) {
  sim::Tracer tracer;
  const std::string json = to_perfetto_json(tracer);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(NativePhaseLog, DecomposesArrivalAndNotification) {
  NativePhaseLog log(2, 4);
  // Episode 0: thread 0 enters at 100, thread 1 at 300 (the straggler);
  // both exit at 400.
  log.record(0, 100, 400);
  log.record(1, 300, 400);
  const auto b = log.breakdown(0);
  // arrival: (300-100 + 300-300)/2 = 100; notification: (400-300)*2/2.
  EXPECT_DOUBLE_EQ(b.arrival_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.notification_ns, 100.0);
}

TEST(NativePhaseLog, ClampsEarlyExitsAndCountsDrops) {
  NativePhaseLog log(2, 1);
  // Thread 0 exits before the straggler even arrives (tree release under
  // skew): its notification contribution clamps to zero.
  log.record(0, 0, 50);
  log.record(1, 100, 150);
  const auto b = log.breakdown(0);
  EXPECT_DOUBLE_EQ(b.arrival_ns, 50.0);
  EXPECT_DOUBLE_EQ(b.notification_ns, 25.0);
  // Second episode exceeds capacity.
  log.record(0, 200, 300);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.complete_episodes(), 1);
}

TEST(NativePhaseLog, MeanSkipsWarmupAndIncompleteEpisodes) {
  NativePhaseLog log(2, 3);
  log.record(0, 0, 20);
  log.record(1, 10, 20);
  log.record(0, 100, 140);
  log.record(1, 120, 140);
  log.record(0, 200, 220);  // thread 1 never logs episode 2
  EXPECT_EQ(log.complete_episodes(), 2);
  const auto mean = log.mean_breakdown(/*warmup=*/1);
  // Only episode 1: arrival (20+0)/2 = 10, notification (20+20)/2 = 20.
  EXPECT_DOUBLE_EQ(mean.arrival_ns, 10.0);
  EXPECT_DOUBLE_EQ(mean.notification_ns, 20.0);
  // Degenerate warmup beyond the data: zeros, no crash.
  const auto empty = log.mean_breakdown(10);
  EXPECT_DOUBLE_EQ(empty.arrival_ns, 0.0);
}

}  // namespace
}  // namespace armbar::obs

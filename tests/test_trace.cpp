// Tests for the simulator's operation tracer and its exports.

#include <gtest/gtest.h>

#include "armbar/obs/perfetto.hpp"
#include "armbar/sim/engine.hpp"
#include "armbar/sim/memory.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/topo/platforms.hpp"

namespace armbar::sim {
namespace {

topo::Machine toy() {
  return topo::make_hierarchical("toy", {2, 2}, {10.0, 100.0}, 1.0, 2, 64,
                                 0.5, 2.0);
}

SimThread traffic(Engine& eng, MemSystem& mem, VarId v) {
  co_await mem.write(0, v, 1);
  co_await mem.read(1, v);
  co_await mem.fetch_add(2, v, 1);
  (void)eng;
}

TEST(Trace, RecordsKindsAndTimes) {
  Engine eng;
  MemSystem mem(eng, toy());
  Tracer tracer;
  mem.set_tracer(&tracer);
  const VarId v = mem.new_var(0);
  eng.spawn(traffic(eng, mem, v));
  ASSERT_TRUE(eng.run());

  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[0].kind, TraceEvent::Kind::kWrite);
  EXPECT_EQ(tracer.events()[0].core, 0);
  EXPECT_EQ(tracer.events()[1].kind, TraceEvent::Kind::kRead);
  EXPECT_EQ(tracer.events()[1].core, 1);
  EXPECT_EQ(tracer.events()[2].kind, TraceEvent::Kind::kRmw);
  EXPECT_EQ(tracer.events()[2].core, 2);
  for (const auto& ev : tracer.events()) {
    EXPECT_LT(ev.start, ev.finish);
    EXPECT_EQ(ev.line, mem.line_of(v));
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, PollsAreTaggedAsPolls) {
  Engine eng;
  MemSystem mem(eng, toy());
  Tracer tracer;
  mem.set_tracer(&tracer);
  const VarId v = mem.new_var(0);
  auto waiter = [](Engine&, MemSystem& m, VarId var) -> SimThread {
    co_await m.spin_until(1, var, sim::SpinPred::eq(1));
  };
  auto setter = [](Engine& e, MemSystem& m, VarId var) -> SimThread {
    co_await delay(e, 1000);
    co_await m.write(0, var, 1);
  };
  eng.spawn(waiter(eng, mem, v));
  eng.spawn(setter(eng, mem, v));
  ASSERT_TRUE(eng.run());
  int polls = 0;
  for (const auto& ev : tracer.events())
    if (ev.kind == TraceEvent::Kind::kPoll) ++polls;
  EXPECT_EQ(polls, 1);  // the successful wake re-read
}

TEST(Trace, CapacityBoundsAndDropCounting) {
  Tracer tracer(/*capacity=*/2);
  tracer.record({0, 1, 0, 0, TraceEvent::Kind::kRead});
  tracer.record({1, 2, 0, 0, TraceEvent::Kind::kRead});
  tracer.record({2, 3, 0, 0, TraceEvent::Kind::kRead});
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, SummaryAggregatesPerCore) {
  Tracer tracer;
  tracer.record({0, 10, 0, 0, TraceEvent::Kind::kRead});
  tracer.record({0, 20, 0, 1, TraceEvent::Kind::kWrite});
  tracer.record({5, 25, 1, 0, TraceEvent::Kind::kRmw});
  tracer.record({5, 30, 1, 0, TraceEvent::Kind::kPoll});
  const auto summary = tracer.summarize(2);
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].reads, 1u);
  EXPECT_EQ(summary[0].writes, 1u);
  EXPECT_EQ(summary[0].busy_ps, 30u);
  EXPECT_EQ(summary[1].rmws, 1u);
  EXPECT_EQ(summary[1].polls, 1u);
  EXPECT_EQ(summary[1].busy_ps, 45u);
}

TEST(Trace, CsvAndChromeExports) {
  Tracer tracer;
  tracer.record({1000, 2000, 3, 7, TraceEvent::Kind::kWrite});
  const std::string csv = tracer.to_csv();
  EXPECT_NE(csv.find("start_ps,finish_ps,core,line,kind"), std::string::npos);
  EXPECT_NE(csv.find("1000,2000,3,7,write"), std::string::npos);
  const std::string json = obs::to_perfetto_json(tracer);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("write L7"), std::string::npos);
}

TEST(Trace, AttachesThroughMeasureBarrier) {
  Tracer tracer;
  simbar::SimRunConfig cfg;
  cfg.threads = 8;
  cfg.iterations = 4;
  cfg.warmup = 1;
  const auto r = simbar::measure_barrier(
      topo::kunpeng920(), simbar::sim_factory(Algo::kOptimized), cfg,
      &tracer);
  EXPECT_GT(r.mean_overhead_ns, 0.0);
  EXPECT_GT(tracer.events().size(), 16u);
  // Events must be within the simulated time range and well-formed.
  for (const auto& ev : tracer.events()) {
    EXPECT_LE(ev.start, ev.finish);
    EXPECT_GE(ev.core, 0);
    EXPECT_LT(ev.core, 64);
  }
}

TEST(Trace, KindNames) {
  EXPECT_EQ(to_string(TraceEvent::Kind::kRead), "read");
  EXPECT_EQ(to_string(TraceEvent::Kind::kWrite), "write");
  EXPECT_EQ(to_string(TraceEvent::Kind::kRmw), "rmw");
  EXPECT_EQ(to_string(TraceEvent::Kind::kPoll), "poll");
}

TEST(Trace, CapacityZeroDropsEverythingButKeepsCounters) {
  Tracer tracer(/*capacity=*/0);
  tracer.record({0, 5, 0, 0, TraceEvent::Kind::kRead});
  tracer.record({5, 9, 0, 0, TraceEvent::Kind::kWrite});
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 2u);
  // Counters are capacity-independent: both events still counted.
  const auto& c = tracer.phase_counters(obs::Phase::kNone);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.busy_ps, 9u);
  // Spans are capped too.
  tracer.begin_phase(0, obs::Phase::kArrival, -1, 0);
  tracer.end_phase(0, 10);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.dropped_spans(), 1u);
  EXPECT_EQ(tracer.phase_counters(obs::Phase::kArrival).span_ps, 10u);
}

TEST(Trace, SummarizeIgnoresOutOfRangeCores) {
  Tracer tracer;
  tracer.record({0, 10, 0, 0, TraceEvent::Kind::kRead});
  tracer.record({0, 10, 7, 0, TraceEvent::Kind::kRead});   // beyond range
  tracer.record({0, 10, -1, 0, TraceEvent::Kind::kRead});  // negative
  const auto summary = tracer.summarize(2);
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].reads, 1u);
  EXPECT_EQ(summary[1].reads, 0u);
  EXPECT_TRUE(tracer.summarize(0).empty());
  EXPECT_TRUE(tracer.summarize(-3).empty());
}

TEST(Trace, PhaseAttributionFollowsOpenSpan) {
  Tracer tracer;
  tracer.record({0, 1, 0, 0, TraceEvent::Kind::kRead});  // before any span
  tracer.begin_phase(0, obs::Phase::kArrival, -1, 0);
  tracer.record({1, 2, 0, 0, TraceEvent::Kind::kWrite});
  tracer.end_phase(0, 10);
  tracer.begin_phase(0, obs::Phase::kNotification, -1, 10);
  tracer.record({11, 12, 0, 0, TraceEvent::Kind::kPoll});
  // A different core's event is not captured by core 0's span.
  tracer.record({11, 12, 1, 0, TraceEvent::Kind::kRead});
  tracer.end_phase(0, 20);

  ASSERT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.events()[0].phase, obs::Phase::kNone);
  EXPECT_EQ(tracer.events()[1].phase, obs::Phase::kArrival);
  EXPECT_EQ(tracer.events()[2].phase, obs::Phase::kNotification);
  EXPECT_EQ(tracer.events()[3].phase, obs::Phase::kNone);
  EXPECT_EQ(tracer.phase_counters(obs::Phase::kArrival).writes, 1u);
  EXPECT_EQ(tracer.phase_counters(obs::Phase::kNotification).polls, 1u);
  EXPECT_EQ(tracer.phase_counters(obs::Phase::kNone).reads, 2u);
}

TEST(Trace, NestedSpansCountOutermostTimeOnce) {
  Tracer tracer;
  tracer.begin_phase(3, obs::Phase::kArrival, -1, 100);
  tracer.begin_phase(3, obs::Phase::kArrival, 0, 110);  // round 0
  EXPECT_EQ(tracer.current_phase(3), obs::Phase::kArrival);
  tracer.end_phase(3, 150);
  tracer.begin_phase(3, obs::Phase::kArrival, 1, 150);  // round 1
  tracer.end_phase(3, 190);
  tracer.end_phase(3, 200);
  EXPECT_EQ(tracer.current_phase(3), obs::Phase::kNone);

  // span_ps counts only the outermost span: 200-100, not + rounds.
  EXPECT_EQ(tracer.phase_counters(obs::Phase::kArrival).span_ps, 100u);
  ASSERT_EQ(tracer.spans().size(), 3u);  // closed in LIFO order
  EXPECT_EQ(tracer.spans()[0].round, 0);
  EXPECT_EQ(tracer.spans()[0].depth, 1);
  EXPECT_EQ(tracer.spans()[1].round, 1);
  EXPECT_EQ(tracer.spans()[2].round, -1);
  EXPECT_EQ(tracer.spans()[2].depth, 0);
  EXPECT_EQ(tracer.spans()[2].finish - tracer.spans()[2].start, 100u);
}

TEST(Trace, EndPhaseWithoutBeginIsANoOp) {
  Tracer tracer;
  tracer.end_phase(0, 10);
  tracer.end_phase(-1, 10);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.current_phase(99), obs::Phase::kNone);
}

TEST(Trace, PhaseScopeIsNullSafeAndRaii) {
  Engine eng;
  {
    PhaseScope null_scope(nullptr, eng, 0, obs::Phase::kArrival);
  }  // must not crash
  Tracer tracer;
  {
    PhaseScope scope(&tracer, eng, 2, obs::Phase::kNotification, 4);
    EXPECT_EQ(tracer.current_phase(2), obs::Phase::kNotification);
  }
  EXPECT_EQ(tracer.current_phase(2), obs::Phase::kNone);
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].round, 4);
}

TEST(Trace, MeasureBarrierProducesPhaseSpans) {
  Tracer tracer;
  simbar::SimRunConfig cfg;
  cfg.threads = 8;
  cfg.iterations = 3;
  cfg.warmup = 1;
  simbar::measure_barrier(topo::kunpeng920(),
                          simbar::sim_factory(Algo::kStaticFway), cfg,
                          &tracer);
  ASSERT_FALSE(tracer.spans().empty());
  bool saw_arrival = false, saw_notification = false;
  for (const auto& sp : tracer.spans()) {
    EXPECT_LE(sp.start, sp.finish);
    EXPECT_GE(sp.core, 0);
    if (sp.phase == obs::Phase::kArrival) saw_arrival = true;
    if (sp.phase == obs::Phase::kNotification) saw_notification = true;
  }
  EXPECT_TRUE(saw_arrival);
  EXPECT_TRUE(saw_notification);
  // Every recorded memory op lands inside a phase: barrier code annotates
  // all its operations.
  for (const auto& ev : tracer.events())
    EXPECT_NE(ev.phase, obs::Phase::kNone);
}

}  // namespace
}  // namespace armbar::sim

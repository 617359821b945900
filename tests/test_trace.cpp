// Tests for the simulator's operation tracer and its exports.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "armbar/barriers/factory.hpp"
#include "armbar/fault/plan.hpp"
#include "armbar/obs/metrics.hpp"
#include "armbar/obs/perfetto.hpp"
#include "armbar/sim/engine.hpp"
#include "armbar/sim/error.hpp"
#include "armbar/sim/memory.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/topo/hier.hpp"
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

// -- counting without the log ------------------------------------------------

/// Expect @p a and @p b to agree on everything a Tracer counts (as opposed
/// to logs).
void expect_same_counters(const Tracer& a, const Tracer& b, int num_cores) {
  for (int p = 0; p < obs::kNumPhases; ++p) {
    SCOPED_TRACE(obs::to_string(static_cast<obs::Phase>(p)));
    const auto& x = a.phase_counters(static_cast<obs::Phase>(p));
    const auto& y = b.phase_counters(static_cast<obs::Phase>(p));
    EXPECT_EQ(x.reads, y.reads);
    EXPECT_EQ(x.writes, y.writes);
    EXPECT_EQ(x.rmws, y.rmws);
    EXPECT_EQ(x.polls, y.polls);
    EXPECT_EQ(x.local_ops, y.local_ops);
    EXPECT_EQ(x.rfo_invalidations, y.rfo_invalidations);
    EXPECT_EQ(x.busy_ps, y.busy_ps);
    EXPECT_EQ(x.span_ps, y.span_ps);
    EXPECT_EQ(x.episode_max_span_ps, y.episode_max_span_ps);
    EXPECT_EQ(x.layer_transfers, y.layer_transfers);
  }
  for (int c = 0; c < num_cores; ++c) {
    EXPECT_EQ(a.current_phase(c), b.current_phase(c)) << "core " << c;
    EXPECT_EQ(a.current_round(c), b.current_round(c)) << "core " << c;
    EXPECT_EQ(a.last_op(c).line, b.last_op(c).line) << "core " << c;
    EXPECT_EQ(a.last_op(c).finish_ps, b.last_op(c).finish_ps) << "core " << c;
  }
}

/// Recompute every per-phase counter that a full log determines from the
/// log alone.  When the run finished (every span closed and logged), also
/// check each event sits inside a logged span of its phase and round on
/// its own core.
void expect_counters_are_log_sums(const Tracer& t, int num_layers,
                                  bool finished) {
  ASSERT_EQ(t.dropped(), 0u);
  ASSERT_EQ(t.dropped_spans(), 0u);
  Tracer::PhaseCounters sum[obs::kNumPhases];
  for (auto& c : sum)
    c.layer_transfers.assign(static_cast<std::size_t>(num_layers), 0);
  for (const TraceEvent& ev : t.events()) {
    Tracer::PhaseCounters& c = sum[static_cast<std::size_t>(ev.phase)];
    switch (ev.kind) {
      case TraceEvent::Kind::kRead: ++c.reads; break;
      case TraceEvent::Kind::kWrite: ++c.writes; break;
      case TraceEvent::Kind::kRmw: ++c.rmws; break;
      case TraceEvent::Kind::kPoll: ++c.polls; break;
    }
    c.busy_ps += ev.finish - ev.start;
    if (ev.layer >= 0)
      ++c.layer_transfers.at(static_cast<std::size_t>(ev.layer));
    else
      ++c.local_ops;
  }
  // Outermost spans close in log order, so a core's k-th depth-0 span of
  // a phase is its k-th episode of that phase.
  std::vector<std::vector<std::uint32_t>> episode(
      static_cast<std::size_t>(obs::kNumPhases));
  for (const Tracer::PhaseSpan& sp : t.spans()) {
    if (sp.depth != 0) continue;
    Tracer::PhaseCounters& c = sum[static_cast<std::size_t>(sp.phase)];
    auto& seq = episode[static_cast<std::size_t>(sp.phase)];
    if (seq.size() <= static_cast<std::size_t>(sp.core))
      seq.resize(static_cast<std::size_t>(sp.core) + 1, 0);
    const std::uint32_t k = seq[static_cast<std::size_t>(sp.core)]++;
    if (c.episode_max_span_ps.size() <= k)
      c.episode_max_span_ps.resize(k + 1, 0);
    c.span_ps += sp.finish - sp.start;
    c.episode_max_span_ps[k] =
        std::max(c.episode_max_span_ps[k], sp.finish - sp.start);
  }
  for (int p = 0; p < obs::kNumPhases; ++p) {
    SCOPED_TRACE(obs::to_string(static_cast<obs::Phase>(p)));
    const auto& want = sum[p];
    const auto& got = t.phase_counters(static_cast<obs::Phase>(p));
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.rmws, want.rmws);
    EXPECT_EQ(got.polls, want.polls);
    EXPECT_EQ(got.local_ops, want.local_ops);
    EXPECT_EQ(got.busy_ps, want.busy_ps);
    EXPECT_EQ(got.layer_transfers, want.layer_transfers);
    EXPECT_EQ(got.span_ps, want.span_ps);
    EXPECT_EQ(got.episode_max_span_ps, want.episode_max_span_ps);
  }

  if (!finished) return;
  // An operation is issued inside its span and, except for a store
  // (which retires from the store buffer before its transaction ends),
  // completes before the span can close; a parked waiter's re-poll runs
  // while the waiter's span is still open.
  std::size_t misplaced = 0;
  for (const TraceEvent& ev : t.events()) {
    if (ev.phase == obs::Phase::kNone) continue;
    const bool inside = std::any_of(
        t.spans().begin(), t.spans().end(), [&](const Tracer::PhaseSpan& sp) {
          return sp.core == ev.core && sp.phase == ev.phase &&
                 sp.round == ev.round && sp.start <= ev.start &&
                 (ev.kind == TraceEvent::Kind::kWrite ||
                  ev.finish <= sp.finish);
        });
    if (!inside && ++misplaced <= 3)
      ADD_FAILURE() << to_string(ev.kind) << " by core " << ev.core
                    << " at [" << ev.start << ", " << ev.finish
                    << "] is attributed to " << obs::to_string(ev.phase)
                    << " round " << ev.round
                    << ", but no such span of that core covers it";
  }
  EXPECT_EQ(misplaced, 0u);
}

/// The MetricsReport JSON of a run, with the log-size fields (the only
/// ones that may differ between a capacity-0 and a full-log tracer)
/// folded into their totals.
std::string metrics_json(const topo::Machine& m,
                         const simbar::SimRunConfig& cfg,
                         const simbar::SimResult& r, const Tracer& t) {
  obs::MetricsReport report = obs::make_metrics(m, cfg, r, t);
  report.trace_events += report.dropped_events;
  report.trace_spans += report.dropped_spans;
  report.dropped_events = report.dropped_spans = 0;
  return obs::to_json(report);
}

// Every simulated algorithm on the three paper machines and hier256, plain
// and under a neutral fault plan: a capacity-0 tracer counts exactly what
// a full-log tracer counts, and each phase's counters are the sums over
// that full log's events and spans of that phase.  A run cut short by its
// event budget leaves spans open, so it also pins current_phase /
// current_round / last_op mid-run and the abort diagnostics built from
// them (the same code a deadline record runs).
TEST(Trace, CountersEqualFullLogOnEveryAlgorithmAndMachine) {
  std::vector<topo::Machine> machines = topo::armv8_machines();
  machines.push_back(topo::hier256());
  for (const topo::Machine& m : machines) {
    const fault::Plan neutral =
        fault::Plan::neutral(m.num_cores(), m.num_layers());
    for (const Algo algo : all_algos()) {
      if (algo == Algo::kStdBarrier || algo == Algo::kPthread) continue;
      for (const fault::Plan* plan : {static_cast<const fault::Plan*>(nullptr),
                                      &neutral}) {
        SCOPED_TRACE(m.name() + " " + to_string(algo) +
                     (plan ? " neutral-plan" : " plain"));
        simbar::SimRunConfig cfg;
        cfg.threads = std::min(m.num_cores() > 64 ? 72 : 24, m.num_cores());
        cfg.iterations = 4;
        cfg.warmup = 1;
        cfg.fault = plan;
        const auto factory =
            simbar::sim_factory(algo, {.cluster_size = m.cluster_size()});

        Tracer lean(0);
        Tracer full(Tracer::kDefaultCapacity);
        const simbar::SimResult a =
            simbar::measure_barrier(m, factory, cfg, &lean);
        const simbar::SimResult b =
            simbar::measure_barrier(m, factory, cfg, &full);
        ASSERT_EQ(a.mean_overhead_ns, b.mean_overhead_ns);
        EXPECT_TRUE(lean.events().empty());
        EXPECT_EQ(lean.dropped(), full.events().size());
        expect_same_counters(lean, full, m.num_cores());
        EXPECT_EQ(metrics_json(m, cfg, a, lean),
                  metrics_json(m, cfg, b, full));
        expect_counters_are_log_sums(full, m.num_layers(), true);

        // Stop half-way: spans stay open on the stuck cores.
        simbar::SimRunConfig cut = cfg;
        cut.max_events = std::max<std::uint64_t>(a.events_processed / 2, 1);
        const auto abort = [&](Tracer& t) {
          try {
            (void)simbar::measure_barrier(m, factory, cut, &t);
          } catch (const DeadlockError& e) {
            return e.cores();
          }
          ADD_FAILURE() << "the event budget did not stop the run";
          return std::vector<CoreDiagnostic>{};
        };
        Tracer lean_cut(0);
        Tracer full_cut(Tracer::kDefaultCapacity);
        const std::vector<CoreDiagnostic> da = abort(lean_cut);
        const std::vector<CoreDiagnostic> db = abort(full_cut);
        expect_same_counters(lean_cut, full_cut, m.num_cores());
        expect_counters_are_log_sums(full_cut, m.num_layers(), false);
        ASSERT_EQ(da.size(), db.size());
        EXPECT_TRUE(std::any_of(db.begin(), db.end(), [](const auto& d) {
          return d.phase != obs::Phase::kNone;
        })) << "no core was stopped inside a span";
        for (std::size_t i = 0; i < da.size(); ++i) {
          EXPECT_EQ(da[i].phase, db[i].phase);
          EXPECT_EQ(da[i].round, db[i].round);
          EXPECT_EQ(da[i].last_line, db[i].last_line);
          EXPECT_EQ(da[i].last_op_ps, db[i].last_op_ps);
        }
      }
    }
  }
}

}  // namespace
}  // namespace armbar::sim

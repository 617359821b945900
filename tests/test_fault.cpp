// Tests for armbar::fault (deterministic fault injection), the engine /
// runner watchdogs (sim::DeadlockError), and the sweep driver's per-job
// fault isolation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "armbar/fault/plan.hpp"
#include "armbar/sim/error.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/topo/platforms.hpp"

namespace armbar {
namespace {

using fault::FaultSpec;
using fault::Plan;
using util::Picos;

FaultSpec straggler_spec(double fraction, double slowdown,
                         std::uint64_t seed = 42) {
  FaultSpec spec;
  spec.seed = seed;
  spec.straggler.fraction = fraction;
  spec.straggler.slowdown = slowdown;
  return spec;
}

FaultSpec noise_spec(double period_us, double duration_us,
                     std::uint64_t seed = 42) {
  FaultSpec spec;
  spec.seed = seed;
  spec.noise.period_us = period_us;
  spec.noise.duration_us = duration_us;
  return spec;
}

// ---------------------------------------------------------------------------
// fault::Plan semantics
// ---------------------------------------------------------------------------

TEST(FaultPlan, DefaultAndAllDisabledSpecsAreInert) {
  EXPECT_FALSE(Plan().active());
  EXPECT_FALSE(Plan(FaultSpec{}, 8, 2).active());
  EXPECT_FALSE(FaultSpec{}.any());
}

TEST(FaultPlan, RejectsInvalidSpecs) {
  const auto bad = [](FaultSpec spec) {
    EXPECT_THROW(Plan(spec, 8, 2), std::invalid_argument);
  };
  bad(straggler_spec(-0.1, 2.0));   // fraction < 0
  bad(straggler_spec(1.5, 2.0));    // fraction > 1
  bad(straggler_spec(0.5, 0.5));    // slowdown < 1
  bad(straggler_spec(0.5, 1e6));    // slowdown absurd
  bad(noise_spec(-1.0, 0.5));       // negative period
  bad(noise_spec(10.0, 20.0));      // duration > period
  FaultSpec nan_spec = straggler_spec(0.5, 2.0);
  nan_spec.straggler.slowdown = std::nan("");
  bad(nan_spec);
  FaultSpec jitter_spec = noise_spec(10.0, 1.0);
  jitter_spec.noise.jitter = 1.0;  // jitter must be < 1
  bad(jitter_spec);
  FaultSpec link_spec;
  link_spec.link.factor = 0.5;  // speedup is not a fault
  bad(link_spec);
  EXPECT_THROW(Plan(straggler_spec(0.5, 2.0), 0, 2), std::invalid_argument);
}

TEST(FaultPlan, StragglerCountAndScale) {
  const Plan plan(straggler_spec(0.125, 2.0), 64, 2);
  ASSERT_TRUE(plan.active());
  int slow = 0;
  for (int c = 0; c < 64; ++c)
    if (plan.is_straggler(c)) ++slow;
  EXPECT_EQ(slow, 8);  // ceil(0.125 * 64)
  for (int c = 0; c < 64; ++c) {
    const Picos scaled = plan.scale(c, 1000);
    EXPECT_EQ(scaled, plan.is_straggler(c) ? 2000u : 1000u);
  }
}

TEST(FaultPlan, AnyPositiveFractionSlowsAtLeastOneCore) {
  const Plan plan(straggler_spec(0.001, 3.0), 8, 2);
  int slow = 0;
  for (int c = 0; c < 8; ++c)
    if (plan.is_straggler(c)) ++slow;
  EXPECT_EQ(slow, 1);
}

TEST(FaultPlan, LinkExtraAppliesFromMinLayer) {
  FaultSpec spec;
  spec.link.min_layer = 1;
  spec.link.factor = 1.5;
  const Plan plan(spec, 8, 3);
  ASSERT_TRUE(plan.active());
  EXPECT_TRUE(plan.degrades_links());
  EXPECT_EQ(plan.link_extra(0, 1000), 0u);
  EXPECT_EQ(plan.link_extra(1, 1000), 500u);
  EXPECT_EQ(plan.link_extra(2, 1000), 500u);
}

TEST(FaultPlan, ReleaseInvariants) {
  const Plan plan(noise_spec(10.0, 2.0), 16, 2);
  ASSERT_TRUE(plan.active());
  bool held_at_least_once = false;
  for (int core = 0; core < 16; ++core) {
    Picos prev_release = 0;
    for (Picos t = 0; t < 60'000'000; t += 977'001) {  // ~60us, odd stride
      const Picos r = plan.release(core, t);
      EXPECT_GE(r, t);
      EXPECT_EQ(plan.release(core, r), r);  // release points are not held
      EXPECT_GE(r, prev_release);           // monotone in t
      prev_release = r;
      if (r > t) held_at_least_once = true;
    }
  }
  EXPECT_TRUE(held_at_least_once);  // 20% duty cycle must hold something
}

TEST(FaultPlan, SameSpecSameDraws) {
  const FaultSpec spec = noise_spec(10.0, 2.0, 1234);
  const Plan a(spec, 32, 2), b(spec, 32, 2);
  for (int core = 0; core < 32; ++core)
    for (Picos t = 0; t < 30'000'000; t += 1'000'003)
      EXPECT_EQ(a.release(core, t), b.release(core, t));
  EXPECT_EQ(a.describe(), b.describe());
}

TEST(FaultPlan, DescribeMentionsActiveFaults) {
  EXPECT_EQ(Plan().describe(), "no faults");
  const Plan plan(straggler_spec(0.25, 2.0, 9), 8, 2);
  const std::string d = plan.describe();
  EXPECT_NE(d.find("straggler"), std::string::npos);
  EXPECT_NE(d.find("seed 9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault plans through the simulator
// ---------------------------------------------------------------------------

simbar::SimRunConfig small_cfg(int threads) {
  simbar::SimRunConfig cfg;
  cfg.threads = threads;
  cfg.iterations = 10;
  cfg.warmup = 2;
  return cfg;
}

simbar::SimBarrierFactory dis_factory() {
  return simbar::sim_factory(Algo::kDissemination, {});
}

TEST(FaultSim, InertPlanIsBitIdenticalToNoPlan) {
  const auto machine = topo::kunpeng920();
  simbar::SimRunConfig cfg = small_cfg(16);
  const auto base = simbar::measure_barrier(machine, dis_factory(), cfg);
  const Plan inert;
  cfg.fault = &inert;
  const auto with_inert = simbar::measure_barrier(machine, dis_factory(), cfg);
  EXPECT_EQ(base.per_episode_ns, with_inert.per_episode_ns);
  EXPECT_EQ(base.mean_overhead_ns, with_inert.mean_overhead_ns);
  EXPECT_EQ(base.stats.local_reads, with_inert.stats.local_reads);
  EXPECT_EQ(base.stats.remote_reads, with_inert.stats.remote_reads);
  EXPECT_EQ(base.stats.rmws, with_inert.stats.rmws);
  EXPECT_EQ(base.events_processed, with_inert.events_processed);
}

TEST(FaultSim, StragglerSlowdownDegradesOverheadMonotonically) {
  const auto machine = topo::kunpeng920();
  double prev = 0.0;
  for (const double slowdown : {1.0, 2.0, 4.0}) {
    const Plan plan(straggler_spec(0.25, slowdown), machine.num_cores(),
                    machine.num_layers());
    simbar::SimRunConfig cfg = small_cfg(16);
    if (plan.active()) cfg.fault = &plan;
    const auto r = simbar::measure_barrier(machine, dis_factory(), cfg);
    if (prev > 0.0) EXPECT_GT(r.mean_overhead_ns, prev);
    prev = r.mean_overhead_ns;
  }
}

TEST(FaultSim, NoisyRunsReplayBitForBit) {
  const auto machine = topo::kunpeng920();
  const Plan plan(noise_spec(20.0, 1.0, 77), machine.num_cores(),
                  machine.num_layers());
  simbar::SimRunConfig cfg = small_cfg(16);
  cfg.fault = &plan;
  const auto a = simbar::measure_barrier(machine, dis_factory(), cfg);
  const auto b = simbar::measure_barrier(machine, dis_factory(), cfg);
  EXPECT_EQ(a.per_episode_ns, b.per_episode_ns);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.stats.remote_reads, b.stats.remote_reads);

  // A different seed draws a different schedule (overwhelmingly likely to
  // move at least one episode).
  const Plan other(noise_spec(20.0, 1.0, 78), machine.num_cores(),
                   machine.num_layers());
  cfg.fault = &other;
  const auto c = simbar::measure_barrier(machine, dis_factory(), cfg);
  EXPECT_NE(a.per_episode_ns, c.per_episode_ns);
}

TEST(FaultSim, MemSystemRejectsUndersizedPlan) {
  const auto machine = topo::kunpeng920();
  const Plan plan(straggler_spec(0.5, 2.0), 4, machine.num_layers());
  simbar::SimRunConfig cfg = small_cfg(8);
  cfg.fault = &plan;
  EXPECT_THROW(simbar::measure_barrier(machine, dis_factory(), cfg),
               std::invalid_argument);
}

TEST(FaultSim, DegradedLinksCostMore) {
  const auto machine = topo::kunpeng920();
  const auto base =
      simbar::measure_barrier(machine, dis_factory(), small_cfg(16));
  FaultSpec spec;
  spec.link.min_layer = 0;
  spec.link.factor = 2.0;
  const Plan plan(spec, machine.num_cores(), machine.num_layers());
  simbar::SimRunConfig cfg = small_cfg(16);
  cfg.fault = &plan;
  const auto degraded = simbar::measure_barrier(machine, dis_factory(), cfg);
  EXPECT_GT(degraded.mean_overhead_ns, base.mean_overhead_ns);
}

// ---------------------------------------------------------------------------
// Knob non-inertness (mutation tests)
// ---------------------------------------------------------------------------
// Each fault knob must visibly perturb a simulated run — an injection
// model that silently does nothing would pass every determinism test
// while testing nothing.  The golden checksum folds the episode
// timestamps and coherence counters into one value; a knob is live iff
// it moves the checksum, and Plan::neutral() must not.

std::uint64_t golden_checksum(const simbar::SimResult& r) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the run's facts
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  for (const double ns : r.per_episode_ns) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof ns);
    std::memcpy(&bits, &ns, sizeof bits);
    mix(bits);
  }
  mix(r.events_processed);
  mix(r.stats.remote_reads);
  mix(r.stats.rmws);
  mix(r.stats.invalidations);
  return h;
}

/// 40 episodes so window-scheduled faults (bursts, flaps, dwell toggles)
/// land inside the simulated span with room to spare.
simbar::SimRunConfig mutation_cfg() {
  simbar::SimRunConfig cfg;
  cfg.threads = 16;
  cfg.iterations = 40;
  cfg.warmup = 2;
  return cfg;
}

std::uint64_t run_checksum(const Plan* plan) {
  const auto machine = topo::kunpeng920();
  simbar::SimRunConfig cfg = mutation_cfg();
  if (plan != nullptr) cfg.fault = plan;
  return golden_checksum(simbar::measure_barrier(machine, dis_factory(), cfg));
}

TEST(FaultMutation, NeutralPlanKeepsGoldenChecksum) {
  const auto machine = topo::kunpeng920();
  const Plan neutral =
      Plan::neutral(machine.num_cores(), machine.num_layers());
  ASSERT_TRUE(neutral.active());
  EXPECT_EQ(run_checksum(nullptr), run_checksum(&neutral));
}

TEST(FaultMutation, BurstKnobChangesGoldenChecksum) {
  const auto machine = topo::kunpeng920();
  FaultSpec spec;
  spec.burst.interval_us = 3.0;
  spec.burst.duration_us = 1.0;
  const Plan plan(spec, machine.num_cores(), machine.num_layers());
  ASSERT_TRUE(plan.bursty());
  EXPECT_NE(run_checksum(nullptr), run_checksum(&plan));
}

TEST(FaultMutation, DwellKnobChangesChecksumAndDiffersFromStatic) {
  const auto machine = topo::kunpeng920();
  FaultSpec fixed = straggler_spec(0.25, 3.0);
  FaultSpec markov = fixed;
  markov.straggler.dwell_us = 2.0;
  const Plan static_plan(fixed, machine.num_cores(), machine.num_layers());
  const Plan dwell_plan(markov, machine.num_cores(), machine.num_layers());
  ASSERT_FALSE(static_plan.time_varying_stragglers());
  ASSERT_TRUE(dwell_plan.time_varying_stragglers());
  const std::uint64_t base = run_checksum(nullptr);
  const std::uint64_t with_dwell = run_checksum(&dwell_plan);
  EXPECT_NE(base, with_dwell);
  // Same fraction/slowdown/seed: only the dwell knob separates the two
  // plans, so differing checksums prove the Markov schedule is consulted.
  EXPECT_NE(run_checksum(&static_plan), with_dwell);
}

TEST(FaultMutation, LinkFlapKnobChangesChecksumAndGatesInTime) {
  const auto machine = topo::kunpeng920();
  FaultSpec steady;
  steady.link.min_layer = 0;
  steady.link.factor = 2.0;
  FaultSpec flappy = steady;
  flappy.link.flap_interval_us = 2.0;
  flappy.link.flap_duration_us = 1.0;
  const Plan steady_plan(steady, machine.num_cores(), machine.num_layers());
  const Plan flap_plan(flappy, machine.num_cores(), machine.num_layers());
  ASSERT_FALSE(steady_plan.flapping_links());
  ASSERT_TRUE(flap_plan.flapping_links());
  const std::uint64_t base = run_checksum(nullptr);
  const std::uint64_t with_flaps = run_checksum(&flap_plan);
  EXPECT_NE(base, with_flaps);
  // The flap windows must gate the surcharge: a link that is degraded
  // only ~33% of the time cannot replay the always-degraded schedule.
  EXPECT_NE(run_checksum(&steady_plan), with_flaps);
}

// ---------------------------------------------------------------------------
// Watchdogs and sim::DeadlockError
// ---------------------------------------------------------------------------

/// Barrier stub that can never complete: thread 0 runs to completion,
/// everyone else spins (in arrival round 3) on a flag nobody ever sets.
class StuckBarrier final : public simbar::SimBarrier {
 public:
  StuckBarrier(sim::Engine& engine, sim::MemSystem& mem, int threads)
      : SimBarrier(engine, mem, threads), flag_(mem.new_var(0)) {}

  sim::SimThread run_thread(int tid, const simbar::SimRunConfig& cfg,
                            simbar::Recorder& rec) override {
    const int core = cfg.core_of(tid);
    rec.enter(tid, 0, eng_.now());
    if (tid == 0) {
      co_await mem_.read(core, flag_);
      rec.exit(tid, 0, eng_.now());
      co_return;
    }
    auto arrive = phase(core, obs::Phase::kArrival, 3);
    co_await mem_.spin_until(core, flag_, sim::SpinPred::ge(1));
    rec.exit(tid, 0, eng_.now());
  }

  std::string name() const override { return "stuck-stub"; }

 private:
  sim::VarId flag_;
};

simbar::SimBarrierFactory stuck_factory() {
  return [](sim::Engine& e, sim::MemSystem& m, int threads) {
    return std::make_unique<StuckBarrier>(e, m, threads);
  };
}

TEST(Watchdog, DeadlockCarriesPerCoreDiagnostics) {
  const auto machine = topo::kunpeng920();
  simbar::SimRunConfig cfg = small_cfg(4);
  sim::Tracer tracer;
  try {
    simbar::measure_barrier(machine, stuck_factory(), cfg, &tracer);
    FAIL() << "expected sim::DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_EQ(e.kind(), sim::DeadlockError::Kind::kDeadlock);
    ASSERT_EQ(e.cores().size(), 4u);
    EXPECT_TRUE(e.cores()[0].finished);
    for (int t = 1; t < 4; ++t) {
      const sim::CoreDiagnostic& d = e.cores()[static_cast<std::size_t>(t)];
      EXPECT_FALSE(d.finished);
      EXPECT_EQ(d.core, t);  // identity placement
      EXPECT_EQ(d.phase, obs::Phase::kArrival);
      EXPECT_EQ(d.round, 3);
      EXPECT_GE(d.last_line, 0);  // the spun-on flag's cacheline
    }
    const std::string text = sim::describe(e);
    EXPECT_NE(text.find("deadlock"), std::string::npos);
    EXPECT_NE(text.find("core 1: stuck in arrival round 3"),
              std::string::npos);
    EXPECT_EQ(text.find("core 0: stuck"), std::string::npos);
  }
}

TEST(Watchdog, DeadlockWithoutTracerStillStructured) {
  const auto machine = topo::kunpeng920();
  try {
    simbar::measure_barrier(machine, stuck_factory(), small_cfg(4));
    FAIL() << "expected sim::DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_EQ(e.kind(), sim::DeadlockError::Kind::kDeadlock);
    ASSERT_EQ(e.cores().size(), 4u);
    EXPECT_FALSE(e.cores()[1].finished);
    EXPECT_EQ(e.cores()[1].phase, obs::Phase::kNone);  // no tracer attached
  }
}

TEST(Watchdog, DeadlockErrorIsARuntimeError) {
  // Callers that predate the structured error still catch it.
  const auto machine = topo::kunpeng920();
  EXPECT_THROW(simbar::measure_barrier(machine, stuck_factory(), small_cfg(4)),
               std::runtime_error);
}

TEST(Watchdog, EventBudgetTripsOnRunawayRun) {
  const auto machine = topo::kunpeng920();
  simbar::SimRunConfig cfg = small_cfg(8);
  cfg.max_events = 50;  // a healthy 8-thread run needs far more
  try {
    simbar::measure_barrier(machine, dis_factory(), cfg);
    FAIL() << "expected sim::DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_EQ(e.kind(), sim::DeadlockError::Kind::kEventBudget);
    EXPECT_EQ(e.events(), 50u);
    EXPECT_EQ(e.cores().size(), 8u);  // enriched by the runner
    EXPECT_NE(std::string(e.what()).find("DIS"), std::string::npos);
  }
}

TEST(Watchdog, TimeBudgetTripsBeforeProcessingLateEvents) {
  const auto machine = topo::kunpeng920();
  simbar::SimRunConfig cfg = small_cfg(8);
  cfg.time_budget_ps = 1;  // 1 ps: the first costed operation exceeds it
  try {
    simbar::measure_barrier(machine, dis_factory(), cfg);
    FAIL() << "expected sim::DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_EQ(e.kind(), sim::DeadlockError::Kind::kTimeBudget);
    EXPECT_LE(e.sim_time_ps(), 1u);
  }
}

TEST(Watchdog, ArmedButUntrippedBudgetsDoNotPerturbResults) {
  const auto machine = topo::kunpeng920();
  const auto base =
      simbar::measure_barrier(machine, dis_factory(), small_cfg(16));
  simbar::SimRunConfig cfg = small_cfg(16);
  cfg.max_events = 100'000'000;
  cfg.time_budget_ps = util::ns_to_ps(1e6);  // 1 ms of simulated time
  const auto armed = simbar::measure_barrier(machine, dis_factory(), cfg);
  EXPECT_EQ(base.per_episode_ns, armed.per_episode_ns);
  EXPECT_EQ(base.events_processed, armed.events_processed);
  EXPECT_EQ(base.stats.remote_reads, armed.stats.remote_reads);
}

TEST(Watchdog, KindNamesAreStable) {
  EXPECT_STREQ(
      sim::DeadlockError::kind_name(sim::DeadlockError::Kind::kDeadlock),
      "deadlock");
  EXPECT_STREQ(
      sim::DeadlockError::kind_name(sim::DeadlockError::Kind::kEventBudget),
      "event-budget");
  EXPECT_STREQ(
      sim::DeadlockError::kind_name(sim::DeadlockError::Kind::kTimeBudget),
      "time-budget");
}

// ---------------------------------------------------------------------------
// Sweep fault isolation
// ---------------------------------------------------------------------------

TEST(SweepIsolation, FaultyJobBecomesJobErrorOthersSucceed) {
  const auto machine = topo::kunpeng920();
  std::vector<simbar::SweepJob> jobs;
  for (int i = 0; i < 5; ++i)
    jobs.push_back(simbar::SweepJob{
        &machine, i == 2 ? stuck_factory() : dis_factory(), small_cfg(4)});

  for (const int workers : {1, 4}) {
    const simbar::SweepDriver driver(workers);
    const auto outcome = driver.run_with_metrics_isolated(jobs);
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), 5u);
    ASSERT_EQ(outcome.errors.size(), 1u);
    const simbar::JobError& err = outcome.errors[0];
    EXPECT_EQ(err.job_index, 2u);
    EXPECT_EQ(err.kind, "deadlock");
    EXPECT_EQ(err.machine_name, machine.name());
    EXPECT_EQ(err.threads, 4);
    EXPECT_NE(err.diagnostics.find("stuck"), std::string::npos);
    for (int i = 0; i < 5; ++i) {
      const auto& run = outcome.results[static_cast<std::size_t>(i)];
      if (i == 2) {
        EXPECT_FALSE(run.has_value());
      } else {
        ASSERT_TRUE(run.has_value());
        EXPECT_GT(run->result.mean_overhead_ns, 0.0);
      }
    }
  }
}

TEST(SweepIsolation, ResultsIdenticalAcrossWorkerCounts) {
  const auto machine = topo::kunpeng920();
  std::vector<simbar::SweepJob> jobs;
  for (int i = 0; i < 6; ++i)
    jobs.push_back(simbar::SweepJob{
        &machine, i % 3 == 1 ? stuck_factory() : dis_factory(),
        small_cfg(2 + i)});
  const auto a = simbar::SweepDriver(1).run_with_metrics_isolated(jobs);
  const auto b = simbar::SweepDriver(4).run_with_metrics_isolated(jobs);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (std::size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].job_index, b.errors[i].job_index);
    EXPECT_EQ(a.errors[i].kind, b.errors[i].kind);
    EXPECT_EQ(a.errors[i].message, b.errors[i].message);
    EXPECT_EQ(a.errors[i].diagnostics, b.errors[i].diagnostics);
  }
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].has_value(), b.results[i].has_value());
    if (a.results[i])
      EXPECT_EQ(a.results[i]->result.per_episode_ns,
                b.results[i]->result.per_episode_ns);
  }
  EXPECT_EQ(simbar::errors_to_json(a.errors),
            simbar::errors_to_json(b.errors));
}

TEST(SweepIsolation, InvalidConfigClassified) {
  const auto machine = topo::kunpeng920();
  simbar::SimRunConfig cfg = small_cfg(4);
  cfg.threads = machine.num_cores() + 1;  // measure_barrier rejects this
  const auto outcome = simbar::SweepDriver(1).run_with_metrics_isolated(
      {simbar::SweepJob{&machine, dis_factory(), cfg}});
  ASSERT_EQ(outcome.errors.size(), 1u);
  EXPECT_EQ(outcome.errors[0].kind, "invalid-argument");
}

/// Throw @p thrown and classify it as the driver and the service do.
template <typename E>
simbar::Failure classify_thrown(const E& thrown) {
  try {
    throw thrown;
  } catch (...) {
    return simbar::classify_current_exception();
  }
}

// The one error taxonomy: every thrown type the driver and the service
// can see, and its kind, message, diagnostics and transient flag.
TEST(SweepIsolation, ClassifyCurrentExceptionTable) {
  using Kind = sim::DeadlockError::Kind;
  const struct {
    Kind kind;
    const char* name;
    bool transient;
  } watchdog[] = {{Kind::kDeadlock, "deadlock", false},
                  {Kind::kEventBudget, "event-budget", false},
                  {Kind::kTimeBudget, "time-budget", false},
                  {Kind::kWallDeadline, "deadline", true}};
  for (const auto& w : watchdog) {
    sim::CoreDiagnostic core;
    core.core = 3;
    const sim::DeadlockError e(w.kind, "watchdog tripped", 1000, 42, {core});
    const simbar::Failure f = classify_thrown(e);
    EXPECT_EQ(f.kind, w.name);
    EXPECT_EQ(f.message, "watchdog tripped");
    EXPECT_EQ(f.diagnostics, sim::describe(e));
    EXPECT_NE(f.diagnostics.find("core 3: stuck"), std::string::npos);
    EXPECT_EQ(f.transient, w.transient) << w.name;
  }

  const struct {
    simbar::Failure got;
    const char* kind;
    const char* message;
    bool transient;
  } others[] = {
      {classify_thrown(std::invalid_argument("bad arg")), "invalid-argument",
       "bad arg", false},
      {classify_thrown(std::logic_error("bad logic")), "invalid-argument",
       "bad logic", false},
      {classify_thrown(std::runtime_error("host trouble")), "error",
       "host trouble", true},
      {classify_thrown(42), "error", "unknown exception", true},
  };
  for (const auto& o : others) {
    EXPECT_EQ(o.got.kind, o.kind) << o.message;
    EXPECT_EQ(o.got.message, o.message);
    EXPECT_EQ(o.got.diagnostics, "") << o.message;
    EXPECT_EQ(o.got.transient, o.transient) << o.message;
  }
}

TEST(SweepIsolation, MeteredVariantIsolatesAndMeters) {
  const auto machine = topo::kunpeng920();
  std::vector<simbar::SweepJob> jobs;
  jobs.push_back(simbar::SweepJob{&machine, dis_factory(), small_cfg(4)});
  jobs.push_back(simbar::SweepJob{&machine, stuck_factory(), small_cfg(4)});
  for (const int workers : {1, 3}) {
    const auto outcome =
        simbar::SweepDriver(workers).run_with_metrics_isolated(jobs);
    ASSERT_EQ(outcome.errors.size(), 1u);
    EXPECT_EQ(outcome.errors[0].job_index, 1u);
    EXPECT_EQ(outcome.errors[0].kind, "deadlock");
    // The per-job tracer enriches even isolated failures with phase info.
    EXPECT_NE(outcome.errors[0].diagnostics.find("arrival round 3"),
              std::string::npos);
    ASSERT_TRUE(outcome.results[0].has_value());
    EXPECT_GT(outcome.results[0]->report.events_processed, 0u);
    EXPECT_GT(outcome.results[0]->report.totals.remote_reads, 0u);
    EXPECT_GT(outcome.results[0]->result.mean_overhead_ns, 0.0);
    EXPECT_FALSE(outcome.results[1].has_value());
  }
}

TEST(SweepIsolation, ValidationStillThrowsBeforeWorkersStart) {
  EXPECT_THROW(
      simbar::SweepDriver(1).run_with_metrics_isolated({simbar::SweepJob{}}),
      std::invalid_argument);
}

TEST(SweepIsolation, ErrorsToJsonShapeAndEscaping) {
  EXPECT_EQ(simbar::errors_to_json({}), "[]");
  simbar::JobError err;
  err.job_index = 3;
  err.machine_name = "m\"x";
  err.threads = 8;
  err.kind = "deadlock";
  err.message = "line1\nline2";
  err.diagnostics = "core 1:\tstuck";
  const std::string json = simbar::errors_to_json({err});
  EXPECT_NE(json.find("\"job_index\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"machine\": \"m\\\"x\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("core 1:\\tstuck"), std::string::npos);
}

}  // namespace
}  // namespace armbar

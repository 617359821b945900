#pragma once
// Simulated barrier measurement driver (the EPCC-equivalent for the
// simulator): runs P simulated threads through I barrier episodes and
// reports the per-episode overhead, mirroring how the paper measures
// overhead with the EPCC micro-benchmark suite.

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "armbar/sim/engine.hpp"
#include "armbar/sim/memory.hpp"
#include "armbar/topo/machine.hpp"
#include "armbar/util/vtime.hpp"

namespace armbar::fault {
class Plan;
}  // namespace armbar::fault

namespace armbar::simbar {

using util::Picos;

struct SimRunConfig {
  int threads = 1;
  int iterations = 20;   ///< barrier episodes per run (EPCC outer reps)
  int warmup = 3;        ///< episodes discarded from the mean (cold caches)
  Picos think_ps = 0;    ///< local computation inserted before each episode
  /// Deterministic per-thread arrival skew amplitude: thread t's episode
  /// start is additionally delayed by hash(t) % skew_ps.  0 disables.
  Picos skew_ps = 0;
  /// Thread-to-core placement; empty = identity (thread i on core i, the
  /// paper's pinning).  Must hold `threads` distinct core indices
  /// otherwise.  See topo::scatter_placement for the round-robin layout.
  std::vector<int> core_of_thread;
  /// Optional fault-injection plan (docs/FAULTS.md).  Not owned; must
  /// outlive the run.  An inert plan (or nullptr) is never consulted —
  /// fault-free runs are bit-identical with and without this field.
  const fault::Plan* fault = nullptr;
  /// Watchdog: abort with sim::DeadlockError once the engine retires this
  /// many events.  0 = Engine::kDefaultMaxEvents.
  std::uint64_t max_events = 0;
  /// Watchdog: abort with sim::DeadlockError before processing any event
  /// past this simulated time.  0 = unlimited.
  Picos time_budget_ps = 0;
  /// Watchdog: abort with sim::DeadlockError (kind "deadline", the only
  /// TRANSIENT kind — never cached) once the run has consumed this much REAL
  /// time.  Cooperative and amortized (Engine::kWallCheckEvents); never
  /// perturbs simulated timestamps of runs that finish.  0 = unlimited.
  double wall_deadline_ms = 0.0;

  int core_of(int tid) const {
    return core_of_thread.empty()
               ? tid
               : core_of_thread[static_cast<std::size_t>(tid)];
  }
};

/// Per-episode enter/exit capture.
class Recorder {
 public:
  Recorder(int threads, int iterations);

  // Inline: every simulated thread records two instants per episode, so
  // these are called millions of times per sweep.
  void enter(int tid, int iter, Picos t) { enter_[idx(tid, iter)] = t; }
  void exit(int tid, int iter, Picos t) { exit_[idx(tid, iter)] = t; }

  Picos enter_time(int tid, int iter) const;
  Picos exit_time(int tid, int iter) const;

  /// Completion instant of episode @p iter (max exit over threads).
  Picos episode_end(int iter) const;
  /// First entry instant of episode @p iter (min enter over threads).
  Picos episode_begin(int iter) const;

  /// Overhead of episode i: episode_end(i) - episode_end(i-1) - think
  /// (end(-1) := 0).  This is the steady-state inter-episode spacing, the
  /// same quantity the EPCC barrier benchmark reports per iteration.
  double episode_overhead_ns(int iter, Picos think_ps) const;

  /// Mean overhead over episodes >= warmup.
  double mean_overhead_ns(int warmup, Picos think_ps) const;

  /// All episode overheads in one pass (each episode end computed once,
  /// not once per neighbouring episode as repeated episode_overhead_ns
  /// calls would).  Element i equals episode_overhead_ns(i, think_ps).
  std::vector<double> overheads(Picos think_ps) const;

  int threads() const noexcept { return threads_; }
  int iterations() const noexcept { return iterations_; }

 private:
  std::size_t idx(int tid, int iter) const {
    if (tid < 0 || tid >= threads_ || iter < 0 || iter >= iterations_)
      throw std::out_of_range("Recorder: index out of range");
    return static_cast<std::size_t>(tid) *
               static_cast<std::size_t>(iterations_) +
           static_cast<std::size_t>(iter);
  }
  int threads_;
  int iterations_;
  std::vector<Picos> enter_;
  std::vector<Picos> exit_;
};

/// Base class for simulated barrier algorithms.  A concrete barrier
/// allocates its shared variables against the MemSystem on construction
/// and emits one coroutine per simulated thread that runs cfg.iterations
/// episodes, recording enter/exit instants.
class SimBarrier {
 public:
  SimBarrier(sim::Engine& engine, sim::MemSystem& mem, int threads)
      : eng_(engine), mem_(mem), threads_(threads) {}
  virtual ~SimBarrier() = default;

  virtual sim::SimThread run_thread(int tid, const SimRunConfig& cfg,
                                    Recorder& rec) = 0;
  virtual std::string name() const = 0;
  int num_threads() const noexcept { return threads_; }

  /// Fixed per-episode cost outside the algorithm itself.  Used to model
  /// the GCC/LLVM OpenMP *runtime* barriers, whose EPCC numbers include
  /// runtime bookkeeping (task state, frame management) on top of the raw
  /// synchronization algorithm.  Zero for the hand-written algorithms.
  void set_runtime_overhead(Picos overhead_ps) {
    runtime_overhead_ps_ = overhead_ps;
  }
  Picos runtime_overhead_ps() const noexcept { return runtime_overhead_ps_; }

 protected:
  /// Common episode prologue: think time, deterministic skew, and the
  /// runtime overhead (if any).
  sim::WakeAt episode_delay(int tid, const SimRunConfig& cfg) const;

  /// Open a phase span on @p core against the run's tracer (no-op when
  /// tracing is off).  Hold the returned scope across the operations of
  /// the phase:  `{ auto s = phase(core, obs::Phase::kArrival); ... }`.
  /// Forced inline: with the span bookkeeping inlined into PhaseScope,
  /// GCC otherwise outlines this helper, and every untraced span would
  /// pay a call that saves six registers before its null-tracer test.
  [[gnu::always_inline]] sim::PhaseScope phase(int core, obs::Phase p,
                                                int round = -1) const {
    return sim::PhaseScope(mem_.tracer(), eng_, core, p, round);
  }

  sim::Engine& eng_;
  sim::MemSystem& mem_;
  int threads_;
  Picos runtime_overhead_ps_ = 0;
};

using SimBarrierFactory = std::function<std::unique_ptr<SimBarrier>(
    sim::Engine&, sim::MemSystem&, int threads)>;

struct SimResult {
  double mean_overhead_ns = 0.0;
  std::vector<double> per_episode_ns;
  sim::MemStats stats;
  /// The five busiest cachelines of the run (contention diagnosis).
  std::vector<sim::MemSystem::HotLine> hot_lines;
  std::string barrier_name;
  /// Discrete events the engine processed for this run (perf accounting;
  /// deterministic for a given scenario).
  std::uint64_t events_processed = 0;
};

/// Build engine + memory for @p machine, instantiate the barrier, run
/// cfg.threads simulated threads for cfg.iterations episodes, and report.
/// Throws sim::DeadlockError (a std::runtime_error) on simulated deadlock
/// or when a cfg watchdog budget trips, carrying per-core diagnostics
/// (phase/round/last-op from @p tracer when one is attached).
/// @param tracer optional operation tracer attached for the whole run.
SimResult measure_barrier(const topo::Machine& machine,
                          const SimBarrierFactory& factory,
                          const SimRunConfig& cfg,
                          sim::Tracer* tracer = nullptr);

}  // namespace armbar::simbar

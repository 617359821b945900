#pragma once
// armbar::wmc — a small exhaustive-interleaving model checker for the
// C++11 acquire/release fragment used by the native barriers.
//
// Why it exists: every native barrier in include/armbar/barriers/ is
// routinely tested on x86, whose TSO hardware model silently upgrades a
// wrong memory_order_relaxed to something safe.  The paper's targets are
// ARMv8 many-cores with genuinely weak ordering, so "it passes on TSO"
// says nothing about the orders actually chosen.  wmc turns the ordering
// claims into mechanically checked facts (cf. the CNA-lock verification
// work, arXiv 2111.15240): the shipped barrier headers, instantiated on
// the checker's atomics policy (wmc::Atomics, models.hpp) at reduced 2–4
// thread geometries, run against a shadow memory that tracks
// per-location modification order and release/acquire happens-before
// edges, and a DFS scheduler enumerates every interleaving — including
// executions where a load returns a stale-but-coherent value that TSO
// could never produce.
//
// The model, precisely:
//  * One execution is one interleaving of *visible* operations (atomic
//    loads, stores, RMWs, awaits).  Modification order of each location
//    equals the execution order of its stores.
//  * A load may read any store S in its location's history unless
//    (a) some later store S' happens-before the load (coherence-hb), or
//    (b) the reading thread has already observed a later store
//        (per-thread read/write coherence).
//    The DFS branches over every admissible candidate, which is exactly
//    how stale values are explored.
//  * release stores carry the writer's vector clock; acquire loads that
//    read them join it (synchronizes-with).  RMWs always continue the
//    release sequence of the store they displace (C++11 §29.3), which is
//    what makes acq_rel counter chains (fetch_sub/fetch_add arrival
//    protocols) transitively publish every earlier arrival.  Plain
//    stores do NOT continue the sequence (the stricter C++20 reading).
//  * seq_cst is conservatively weakened to acq_rel: the checker may
//    report behaviours a real SC fence would forbid, never the reverse.
//  * Spin loops are abstracted as `await`: the thread blocks until some
//    admissible candidate satisfies the predicate, then performs an
//    acquire-or-weaker load of it.  This collapses unbounded spinning
//    into one scheduling point and makes deadlocks decidable: if no
//    thread can move and not all have finished, the schedule that got
//    there is reported.
//
// Known under-approximation: because a load can only read stores that
// were already executed, load-buffering (LB) shapes are not explored.
// ARMv8 forbids LB cycles with address/data/control dependencies, and no
// barrier in this library communicates through one, but the checker is
// therefore *sound for what it reports* (every violation is a real
// C++11-allowed execution) rather than complete for all of C++11.
//
// Exploration is DFS with sleep sets (each Mazurkiewicz trace is explored
// once; independent-operation permutations are pruned) plus a seeded
// random-walk fallback above a configurable execution budget.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "armbar/barriers/atomics.hpp"

namespace armbar::wmc {

// ---------------------------------------------------------------------------
// Exploration options and results
// ---------------------------------------------------------------------------

struct Options {
  /// DFS execution budget.  If the full tree is not exhausted within this
  /// many executions the checker switches to seeded random walks and the
  /// result is marked non-exhaustive.
  std::uint64_t max_executions = 2'000'000;
  /// Number of random-walk executions to run after a blown DFS budget.
  std::uint64_t random_executions = 20'000;
  /// Seed for the random-walk fallback.
  std::uint64_t seed = 1;
  /// Stop exploring after this many violations have been recorded.
  std::size_t max_violations = 1;
  /// Disable the sleep-set reduction (every interleaving is enumerated,
  /// including permutations of independent operations).  Used by tests to
  /// cross-validate the reduction; keep it on otherwise.
  bool no_sleep_sets = false;
  /// Cap on recorded schedule steps per violation trace.
  std::size_t max_trace_steps = 256;
  /// Named order site (armbar::Site) to weaken to relaxed for the whole
  /// exploration; empty checks the orders as declared.
  std::string mutate;
};

struct Violation {
  std::string kind;    ///< "deadlock", "stale-read", "barrier-escape", ...
  std::string detail;  ///< human-readable description
  std::vector<std::string> trace;  ///< schedule that produced it
};

struct Result {
  bool exhaustive = false;      ///< DFS exhausted the whole tree
  std::uint64_t executions = 0; ///< interleavings actually run
  std::uint64_t branch_points = 0;  ///< scheduling points with >1 option
  std::uint64_t sleep_pruned = 0;   ///< executions cut by sleep sets
  std::uint64_t deepest_history = 0;  ///< longest per-location mod order
  std::vector<std::string> sites;  ///< named order sites consulted, sorted
  std::vector<Violation> violations;

  bool ok() const noexcept { return violations.empty(); }
};

// ---------------------------------------------------------------------------
// Env — the per-exploration environment thread bodies run against
// ---------------------------------------------------------------------------

class Engine;  // internal (engine.cpp)

/// Handle to the exploration passed to program factories and thread
/// bodies.  All wmc::Atomic operations route through it.  One Env is
/// stable for the whole exploration; its shadow memory is reset between
/// executions.
class Env {
 public:
  /// Maximum number of model threads (fibers) per program.
  static constexpr int kMaxThreads = 4;

  /// The Env of the exploration running on this thread (its program
  /// factory or its thread bodies); every Atomic operation goes through
  /// it.  Throws outside an exploration.
  static Env& current();

  // -- used by Atomic<T> / await ------------------------------------------
  int register_location(const char* name);
  std::uint64_t do_load(int loc, std::memory_order order, const char* site);
  void do_store(int loc, std::uint64_t value, std::memory_order order,
                const char* site);
  enum class Rmw { kAdd, kSub };
  std::uint64_t do_rmw(int loc, Rmw op, std::uint64_t operand,
                       std::memory_order order, const char* site);
  std::uint64_t do_await(int loc, std::memory_order order,
                         std::function<bool(std::uint64_t)> pred,
                         const char* site);

  /// Order of a named site: relaxed if this exploration weakens it
  /// (Options::mutate), its declared order otherwise.  Records the site in
  /// Result::sites.
  std::memory_order order_at(const Site& site);

  /// Record a violation observed by the running thread body (e.g. a
  /// postcondition failure).  The current execution continues so fibers
  /// unwind normally; exploration stops once Options::max_violations is
  /// reached.
  void fail(std::string kind, std::string detail);

  /// Thread id of the fiber currently executing (valid inside bodies).
  int current_thread() const noexcept;

 private:
  friend class Engine;
  explicit Env(Engine& engine) : engine_(engine) {}
  Engine& engine_;
};

// ---------------------------------------------------------------------------
// Atomic shadow type
// ---------------------------------------------------------------------------

/// Shadow of std::atomic<T> for T in {int, unsigned, std::uint32_t,
/// std::uint64_t, ...}: values are carried as raw 64-bit words.  The
/// `site` argument names the access in violation traces.  Every operation
/// also takes an armbar::Site, whose order the Env resolves against the
/// weakening under test: that is how the barrier headers run unchanged.
/// Operations route through Env::current(), so an Atomic is one int, no
/// larger than the std::atomic it shadows and the layouts it lives in.
template <typename T>
class Atomic {
 public:
  Atomic(Env& env, const char* name) : loc_(env.register_location(name)) {}
  /// Registers with Env::current(); this is what a barrier's
  /// default-constructed flags and counters do.
  Atomic() : Atomic(Env::current(), nullptr) {}

  T load(std::memory_order order, const char* site = "") const {
    return static_cast<T>(Env::current().do_load(loc_, order, site));
  }
  void store(T value, std::memory_order order, const char* site = "") {
    Env::current().do_store(loc_, static_cast<std::uint64_t>(value), order,
                            site);
  }
  T fetch_add(T value, std::memory_order order, const char* site = "") {
    return static_cast<T>(Env::current().do_rmw(
        loc_, Env::Rmw::kAdd, static_cast<std::uint64_t>(value), order, site));
  }
  T fetch_sub(T value, std::memory_order order, const char* site = "") {
    return static_cast<T>(Env::current().do_rmw(
        loc_, Env::Rmw::kSub, static_cast<std::uint64_t>(value), order, site));
  }

  T load(const Site& s) const {
    return load(Env::current().order_at(s), s.name);
  }
  void store(T value, const Site& s) {
    store(value, Env::current().order_at(s), s.name);
  }
  T fetch_add(T value, const Site& s) {
    return fetch_add(value, Env::current().order_at(s), s.name);
  }
  T fetch_sub(T value, const Site& s) {
    return fetch_sub(value, Env::current().order_at(s), s.name);
  }

  int location() const noexcept { return loc_; }

 private:
  int loc_;
};

/// Abstraction of util::spin_until: block until some admissible store
/// satisfies @p pred, then load it with @p order semantics and return the
/// value.  The scheduler branches over every satisfying candidate.
template <typename T, typename Pred>
T await(Env& env, const Atomic<T>& flag, std::memory_order order, Pred pred,
        const char* site = "") {
  return static_cast<T>(env.do_await(
      flag.location(), order,
      [pred](std::uint64_t raw) { return pred(static_cast<T>(raw)); }, site));
}

template <typename T, typename Pred>
T await(const Atomic<T>& flag, const Site& site, Pred pred) {
  Env& env = Env::current();
  return await(env, flag, env.order_at(site), pred, site.name);
}

// ---------------------------------------------------------------------------
// explore — the entry point
// ---------------------------------------------------------------------------

/// Per-thread body: called on a fiber with the thread id.
using ThreadFn = std::function<void(int tid)>;

/// Program factory: invoked once per execution with the (reset) Env.
/// Construct the model state here (wmc::Atomic registrations) and return
/// the shared thread body.
using Program = std::function<ThreadFn(Env& env)>;

/// Explore all interleavings of @p num_threads fibers running the program
/// built by @p make.  num_threads must be in [1, Env::kMaxThreads].
Result explore(int num_threads, const Program& make, const Options& options);

}  // namespace armbar::wmc

#pragma once
// Simulation-driven barrier auto-tuning.
//
// OptimizedConfig::for_machine() applies the paper's *analytical* tuning
// (fan-in from eq. 2, wake-up policy from eqs. 3-4).  This module goes one
// step further, the way a deployment would: run the candidate barriers on
// the simulated machine and pick the empirical winner.  Each candidate is
// measured with a phase-resolved metrics report attached, so the ranking
// does not just say *who* wins but *why*: every candidate is classified
// arrival-bound vs notification-bound and carries a one-line explanation
// naming the dominant phase and latency layer (obs::explain).
//
// The same reports drive an optional phase-aware grid prune
// (TuneOptions::prune): once a fan-in's measured arrival time alone
// already exceeds the best overhead seen, re-evaluating wake-up policies
// that only change the notification tree cannot produce a new winner, so
// those candidates are skipped.  The pruned search returns the identical
// best candidate as the exhaustive grid while simulating less (validated
// on the three paper machines in tests/test_autotune.cpp).
//
// Used by sweep_cli --autotune and validated against the analytical
// choice in tests.

#include <string>
#include <vector>

#include "armbar/barriers/factory.hpp"
#include "armbar/fault/plan.hpp"
#include "armbar/obs/aggregate.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/topo/machine.hpp"

namespace armbar::simbar {

struct TuneCandidate {
  Algo algo = Algo::kOptimized;
  MakeOptions options;
  std::string name;          ///< resolved barrier name
  double overhead_us = 0.0;  ///< simulated overhead at the tuned thread count
  obs::PhaseShares shares;   ///< span share per phase (arrival/notification)
  obs::Bound bound = obs::Bound::kBalanced;  ///< phase classification
  std::string explanation;   ///< one-line phase attribution (never empty)
};

struct TuneResult {
  TuneCandidate best;
  std::vector<TuneCandidate> ranking;  ///< evaluated candidates, best first
  int grid_size = 0;   ///< full candidate-grid size
  int evaluated = 0;   ///< simulations actually run (== grid_size unpruned)
  /// Human-readable record of skipped candidates and why ("opt f=8
  /// notify=binary-tree: pruned, arrival floor 0.93us >= best 0.64us").
  std::vector<std::string> pruned;
};

struct TuneOptions {
  int iterations = 16;
  /// Enable the phase-aware grid prune.  Off by default: the exhaustive
  /// grid is the reference behavior and what the ranking-completeness
  /// tests pin down.
  bool prune = false;
  /// Span share above which a phase is considered dominant (candidate
  /// classification and explanations).
  double bound_threshold = obs::kDefaultBoundThreshold;
  /// Safety factor (<= 1) applied to the arrival-time floor before a
  /// fan-in's remaining notify variants are skipped; smaller prunes less.
  double prune_margin = 0.9;
  /// Optional fault plan applied to every candidate run (not owned; must
  /// outlive the call).  Tuning under the same perturbations the
  /// deployment will see — noise, correlated bursts, time-varying
  /// stragglers, link flaps — can rank the candidates differently than a
  /// quiet machine does.  nullptr (or an inert plan) tunes undisturbed.
  const fault::Plan* fault = nullptr;
};

/// The candidate set tried by default: every simulatable algorithm plus
/// the optimized barrier under each wake-up policy and fan-ins {2,4,8}.
std::vector<std::pair<Algo, MakeOptions>> default_tune_candidates(
    const topo::Machine& machine);

/// Measure candidates at @p threads and rank them.  Deterministic (same
/// machine/threads/options -> same ranking; worker pool does not affect
/// results).  Throws std::invalid_argument for threads < 1 or
/// options.iterations < 1.
TuneResult autotune(const topo::Machine& machine, int threads,
                    const TuneOptions& options);

/// Exhaustive-grid convenience overload (prune disabled).
TuneResult autotune(const topo::Machine& machine, int threads,
                    int iterations = 16);

}  // namespace armbar::simbar

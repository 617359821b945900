#pragma once
// Phase-resolved, layer-bucketed metrics for one simulated barrier run.
//
// A MetricsReport is the compact numeric companion to the Perfetto trace:
// for each phase (arrival / notification, plus "none" for unattributed
// operations) it reports the operation mix, the time spent, the RFO
// invalidations, and a histogram of remote transfers bucketed by machine
// latency layer (L0 = cheapest remote layer, e.g. within a core group;
// the last layer = the most expensive cross-cluster/cross-panel hop).
//
// Invariant (asserted in tests/test_obs.cpp): the per-phase layer
// histograms sum — across phases, per layer — to the memory system's own
// MemStats::layer_transfers exactly, because the tracer counts transfers
// at the same attribution sites and its counters are never capacity
// bounded.  See docs/TRACING.md for the JSON schema.

#include <cstdint>
#include <string>
#include <vector>

#include "armbar/obs/phase.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/topo/machine.hpp"

namespace armbar::obs {

/// Aggregates for one phase over a whole run (all cores, all episodes).
struct PhaseMetrics {
  Phase phase = Phase::kNone;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t rmws = 0;
  std::uint64_t polls = 0;
  /// Operations with no remote transfer (hits and cold fills).
  std::uint64_t local_ops = 0;
  /// Copies invalidated by this phase's write/rmw transactions.
  std::uint64_t rfo_invalidations = 0;
  /// Remote transfers by machine layer (index = layer, padded with zeros
  /// to the machine's layer count); remote_transfers is their sum.
  std::vector<std::uint64_t> layer_transfers;
  std::uint64_t remote_transfers = 0;
  /// Sum of operation durations attributed to this phase.
  double busy_ns = 0.0;
  /// Total simulated time inside outermost spans of this phase, summed
  /// over cores.
  double span_ns = 0.0;
  /// Mean per-episode critical path of the phase: the longest outermost
  /// span over cores, averaged over post-warmup episodes.  For arrival
  /// this is the serial gather floor no wake-up policy can remove — the
  /// quantity the autotuner's phase prune compares against the best
  /// overhead (see docs/TRACING.md §7).
  double critical_span_ns = 0.0;
};

/// Everything the run produced, ready for serialization.
struct MetricsReport {
  std::string machine_name;
  std::string barrier_name;
  int threads = 0;
  int iterations = 0;
  double mean_overhead_ns = 0.0;
  std::uint64_t events_processed = 0;

  /// The memory system's own run totals (ground truth the per-phase
  /// histograms must sum to).
  sim::MemStats totals;
  /// Machine layer names, index-aligned with the layer histograms.
  std::vector<std::string> layer_names;
  /// One entry per phase, indexed by obs::Phase (kNone first).
  std::vector<PhaseMetrics> phases;

  /// Event/span log accounting (counters above are exact regardless).
  std::size_t trace_events = 0;
  std::size_t trace_spans = 0;
  std::size_t dropped_events = 0;
  std::size_t dropped_spans = 0;

  /// Sum of totals.layer_transfers (total remote transfers of the run).
  std::uint64_t total_remote_transfers() const noexcept;
};

/// Build the report for a finished run.  @p tracer must be the tracer
/// that was attached for the run that produced @p result, and @p cfg the
/// configuration that run used.
MetricsReport make_metrics(const topo::Machine& machine,
                           const simbar::SimRunConfig& cfg,
                           const simbar::SimResult& result,
                           const sim::Tracer& tracer);

/// Serialize to pretty-printed JSON (schema: docs/TRACING.md).
std::string to_json(const MetricsReport& report);

}  // namespace armbar::obs

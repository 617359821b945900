#pragma once
// Sweep-level metrics roll-up and phase-attribution vocabulary.
//
// A sweep produces one MetricsReport per (machine, algorithm, threads)
// cell (simbar::SweepDriver::run_with_metrics).  This module joins those
// per-job reports into one cross-machine / cross-algorithm SweepSummary —
// per-phase span shares, per-layer transfer totals, RFO density — with
// JSON and table renderers (sweep_cli --metrics), and defines the shared
// classification the autotuner uses to explain *why* a configuration wins:
// arrival-bound vs notification-bound, from the paper's Section III
// decomposition.  See docs/TRACING.md §7 for the JSON schema and the
// explanation vocabulary.

#include <cstdint>
#include <string>
#include <vector>

#include "armbar/obs/metrics.hpp"

namespace armbar::simbar {
struct MeteredRun;  // sweep.hpp; overload below avoids a header cycle
}

namespace armbar::obs {

// -- phase attribution ------------------------------------------------------

/// Fraction of the run's total outermost-span time spent in each phase.
/// All zero when the run recorded no spans (e.g. an unannotated barrier).
struct PhaseShares {
  double arrival = 0.0;
  double notification = 0.0;
  double other = 0.0;  ///< unattributed (Phase::kNone) span time
};

/// Span share above which a phase is considered to dominate a run.
inline constexpr double kDefaultBoundThreshold = 0.55;

/// Which phase dominates a run.
enum class Bound : std::uint8_t {
  kBalanced = 0,          ///< neither phase reaches the threshold
  kArrivalBound = 1,      ///< arrival span share >= threshold
  kNotificationBound = 2, ///< notification span share >= threshold
};

/// Stable name ("balanced", "arrival-bound", "notification-bound").
const char* to_string(Bound b) noexcept;

PhaseShares span_shares(const MetricsReport& report) noexcept;

Bound classify(const PhaseShares& shares,
               double threshold = kDefaultBoundThreshold) noexcept;

/// One-line phase attribution for a run: the dominant phase, its span
/// share, and the costliest latency layer its remote transfers cross —
/// e.g. "notification-bound: 62% of span in notification, 48% of its
/// transfers cross L2 (cross-SCCL)".  Never empty.
std::string explain(const MetricsReport& report,
                    double threshold = kDefaultBoundThreshold);

// -- sweep roll-up ----------------------------------------------------------

/// Cross-machine/cross-algorithm aggregation of per-job MetricsReports.
/// Rows preserve report (= job) order; per-machine totals appear in
/// first-occurrence order, so the summary is deterministic for a
/// deterministic sweep regardless of worker count.
struct SweepSummary {
  /// One row per report.
  struct Row {
    std::string machine;
    std::string barrier;
    int threads = 0;
    int iterations = 0;
    double mean_overhead_ns = 0.0;
    PhaseShares shares;
    Bound bound = Bound::kBalanced;
    std::uint64_t total_ops = 0;
    std::uint64_t remote_transfers = 0;
    std::uint64_t rfo_invalidations = 0;
    /// RFO density: invalidations per 1000 traced operations.
    double rfo_per_kop = 0.0;
    /// Remote transfers per layer, summed over phases (index = machine
    /// layer; comparable only within one machine).
    std::vector<std::uint64_t> layer_transfers;
  };

  /// Totals per machine (layer indices are machine-relative, so
  /// cross-machine layer totals would be meaningless).
  struct MachineTotals {
    std::string machine;
    std::vector<std::string> layer_names;
    /// [phase][layer] remote-transfer totals, phase indexed by obs::Phase.
    std::vector<std::vector<std::uint64_t>> phase_layer_transfers;
    std::uint64_t total_ops = 0;
    std::uint64_t rfo_invalidations = 0;
    int runs = 0;
  };

  std::vector<Row> rows;
  std::vector<MachineTotals> machines;
  /// Summed log-overflow accounting across jobs (counters stay exact).
  std::size_t dropped_events = 0;
  std::size_t dropped_spans = 0;
};

/// Append @p report to @p summary: one row, plus its machine's totals.
/// Folding every report of a sweep in job order through this builds the
/// same summary as aggregate(), so a streaming caller can keep one row
/// per job instead of every report.
void accumulate(SweepSummary& summary, const MetricsReport& report);

/// The row accumulate() appends for @p report.
SweepSummary::Row summary_row(const MetricsReport& report);

/// Everything accumulate() does but the row: fold @p report into its
/// machine's totals and the trace-drop counters of @p summary.
void accumulate_totals(SweepSummary& summary, const MetricsReport& report);

SweepSummary aggregate(const std::vector<MetricsReport>& reports);

/// Convenience: aggregate straight from SweepDriver::run_with_metrics.
SweepSummary aggregate(const std::vector<simbar::MeteredRun>& runs);

/// Serialize to pretty-printed JSON (schema: docs/TRACING.md §7).
/// Locale-independent and strictly valid JSON (non-finite doubles are
/// emitted as null).  The text is json_frame's head, then each row by
/// append_row_json with ',' between rows, then the frame's tail: a
/// caller that keeps rendered rows (the sweep service) writes the same
/// bytes from the same two functions.
std::string to_json(const SweepSummary& summary);

/// Append one element of to_json's "rows" array, without the ',' that
/// separates it from the element before.
void append_row_json(std::string& out, const SweepSummary::Row& row);

/// to_json's text around the row elements: `head` ends by opening the
/// "rows" array and `tail` starts by closing it.  @p runs is the row
/// count; summary.rows is not read.
struct JsonFrame {
  std::string head;
  std::string tail;
};
JsonFrame json_frame(const SweepSummary& summary, std::size_t runs);

/// Render as aligned text tables: one cross-algorithm row table plus one
/// per-machine layer-transfer table.
std::string to_table(const SweepSummary& summary);

}  // namespace armbar::obs

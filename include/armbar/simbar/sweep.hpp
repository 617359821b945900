#pragma once
// Parallel sweep driver for independent barrier simulations.
//
// Every figure/table binary and the autotuner runs the same shape of
// workload: a list of independent (machine, algorithm, thread-count,
// config) simulations whose results are only combined afterwards.  Each
// simulation is single-threaded and deterministic, so the sweep
// parallelizes perfectly across a worker pool: workers claim jobs from a
// shared counter and write results into a slot indexed by job position.
//
// Determinism guarantee: results[i] is the result of jobs[i], computed by
// an isolated Engine/MemSystem, so the output is identical for any worker
// count (including 1) and any claim interleaving.  The first job
// exception (by job index, not completion order) is rethrown on join.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "armbar/obs/metrics.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/topo/machine.hpp"

namespace armbar::simbar {

/// One independent simulation of a sweep.  The machine is referenced, not
/// copied: it must stay alive until run() returns (measure_barrier copies
/// it into the MemSystem it builds).
struct SweepJob {
  const topo::Machine* machine = nullptr;
  SimBarrierFactory factory;
  SimRunConfig cfg;
  /// Optional per-job tracer (owned by the caller, attached for the whole
  /// run).  Each job needs its own Tracer instance: jobs run concurrently
  /// and the tracer is not synchronized.  Null (the default) keeps the
  /// sweep observability-free with zero overhead.
  sim::Tracer* tracer = nullptr;
};

/// One job's result together with its phase-resolved metrics report
/// (SweepDriver::run_with_metrics).
struct MeteredRun {
  SimResult result;
  obs::MetricsReport report;
};

/// A failed simulation, classified: the one error taxonomy the sweep
/// driver's isolated mode and the sweep service share (docs/FAULTS.md §5).
struct Failure {
  /// A sim::DeadlockError kind name ("deadlock" / "event-budget" /
  /// "time-budget" / "deadline"), "invalid-argument", or "error".
  std::string kind;
  std::string message;      ///< exception what()
  std::string diagnostics;  ///< sim::describe() for watchdog aborts, else ""
  /// The failure depends on the host, not the inputs (a wall-clock
  /// deadline, allocation pressure, anything unclassified): the service
  /// keeps such a verdict out of its cache.
  bool transient = false;
};

/// Classify the exception being handled.  Call only inside a catch block.
Failure classify_current_exception();

/// One failed job of run_with_metrics_isolated: which job, and its
/// Failure's kind, message and diagnostics.  docs/FAULTS.md documents the
/// JSON rendering (errors_to_json).
struct JobError {
  std::size_t job_index = 0;
  /// Job spec snapshot, so a failure is identifiable without the job list.
  std::string machine_name;
  int threads = 0;
  std::string kind;
  std::string message;
  std::string diagnostics;
};

/// Partial results of a fault-isolated sweep: results[i] is engaged iff
/// jobs[i] succeeded; every failure appears in errors, ascending by
/// job_index.  Both vectors are identical for any worker count.
struct MeteredOutcome {
  std::vector<std::optional<MeteredRun>> results;
  std::vector<JobError> errors;
  bool ok() const noexcept { return errors.empty(); }
};

/// Render an isolated sweep's error section as a JSON array (stable field
/// order; "[]" when empty).  Follows the obs JSON hardening rules:
/// classic-locale numbers, full control-character escaping.
std::string errors_to_json(const std::vector<JobError>& errors);

class SweepDriver {
 public:
  /// @param workers worker-thread count; 0 picks default_workers().
  explicit SweepDriver(int workers = 0);

  int workers() const noexcept { return workers_; }

  /// Hardware concurrency, at least 1.
  static int default_workers();

  /// Run every job and return results in job order.  Jobs with a null
  /// machine or empty factory throw std::invalid_argument (before any
  /// worker starts).  A single worker runs inline on the calling thread
  /// (no pool, same results).
  std::vector<SimResult> run(const std::vector<SweepJob>& jobs) const;

  /// Owning metrics mode: like run(), but the driver attaches one
  /// sim::Tracer per job and returns each job's SimResult together with
  /// its obs::MetricsReport, in job order (same determinism guarantee —
  /// the output is byte-for-byte identical for any worker count).  Jobs
  /// must not carry their own tracer (std::invalid_argument otherwise;
  /// use run() for caller-owned tracers).
  /// @param trace_capacity per-job event/span log capacity.  The default
  ///   0 retains no event/span log — the per-phase counters feeding the
  ///   report stay exact regardless (see docs/TRACING.md §1) and large
  ///   sweeps do not pay a log allocation per concurrent job.
  std::vector<MeteredRun> run_with_metrics(const std::vector<SweepJob>& jobs,
                                           std::size_t trace_capacity = 0) const;

  /// Fault-isolated run_with_metrics(): a failing job becomes a JobError
  /// (classified by classify_current_exception) instead of aborting the
  /// sweep, and every other job's result is still returned.  A failed job
  /// is never retried.  Job-list validation errors (null machine, empty
  /// factory, a job-owned tracer) still throw before any worker starts.
  MeteredOutcome run_with_metrics_isolated(const std::vector<SweepJob>& jobs,
                                           std::size_t trace_capacity = 0) const;

 private:
  int workers_;
};

}  // namespace armbar::simbar

#pragma once
// armbar::svc — the long-running "barrier lab" sweep service.
//
// sweep_cli's one-shot path answers one job list and exits; this module
// is the sustained-throughput counterpart: one intake thread that parses
// each job, keys it and answers a cache hit itself, a pool of persistent
// workers fed only the misses through lock-free SPSC rings (a miss that
// finds every ring full runs on intake, which would otherwise only wait),
// machine/topology/latency tables resolved once per service and reused
// across jobs, and a sharded result cache keyed on every simulation input
// so a repeated cell costs a hash lookup instead of a simulation.
//
// Streaming contract (docs/SERVICE.md): intake reads JSONL job lines
// (blank lines and '#' comments skipped), emits one JSONL result line per
// job *in job order*, then one aggregated SweepSummary JSON object.  The
// stream is byte-identical to SweepService::run_oneshot (the
// SweepDriver-based batch path) for any worker count and any cache state
// — the determinism guarantee the sweep layer established, extended to
// the service.  bench/perf_service reports sustained jobs/sec on top of
// serve(); scripts/perf_gate.py ratchets it via BENCH_service.json.
//
// Robustness envelope (all off by default; defaults preserve the
// byte-identity contract exactly):
//  * per-job wall-clock deadlines  — a runaway simulation aborts with a
//    structured JobError{kind:"deadline"} record instead of hanging a
//    worker (job_deadline_ms).  A failed job is never retried, and a
//    transient verdict (a deadline) never enters the cache;
//  * explicit load shedding — above max_inflight, intake converts a job
//    into a JobError{kind:"shed"} record immediately; nothing is ever
//    silently dropped;
//  * graceful drain — request_stop() (or EOF) stops intake, finishes
//    in-flight jobs, flushes the reorder window, and emits the final
//    summary + stats;
//  * bounded intake lines — a line longer than max_line_bytes becomes a
//    JobError{kind:"parse-error"} record without buffering the tail, and
//    EOF mid-line still yields exactly one record for the partial line.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "armbar/svc/cache.hpp"
#include "armbar/svc/job.hpp"

namespace armbar::svc {

struct ServiceOptions {
  /// Worker threads; 0 = hardware concurrency.
  int workers = 0;
  /// Per-worker SPSC ring slots (rounded up to a power of two).  A miss
  /// that finds every ring full runs on intake, so a deeper ring only
  /// lengthens the queue a miss waits in: a record's latency is about
  /// jobs in flight / throughput.  The reorder window is 2 x workers x
  /// slots, rounded up to a power of two.
  std::size_t ring_capacity = 128;
  /// Result-cache lock shards.
  std::size_t cache_shards = 16;
  /// Disable to force every occurrence of a cell to simulate (the
  /// cold-path configuration bench/perf_service measures against).
  bool use_cache = true;

  // -- robustness envelope (docs/SERVICE.md §robustness) -------------------

  /// Per-job wall-clock deadline; a job still simulating after this much
  /// real time aborts with JobError{kind:"deadline"} (transient — never
  /// cached).  0 = no deadline.
  double job_deadline_ms = 0.0;
  /// Load shedding: with more than this many jobs in flight, intake
  /// immediately emits JobError{kind:"shed"} for new jobs instead of
  /// queueing them.  0 = never shed (intake blocks on the reorder
  /// window instead).  Values >= the reorder window never trigger.
  std::uint64_t max_inflight = 0;
  /// Longest accepted input line; longer lines become
  /// JobError{kind:"parse-error"} records without buffering the excess.
  std::size_t max_line_bytes = kDefaultMaxLineBytes;

  static constexpr std::size_t kDefaultMaxLineBytes = 64 * 1024;
};

/// Per-serve() batch accounting.  Cache counters are deltas over the
/// batch, not process totals.
struct ServiceStats {
  std::uint64_t jobs = 0;        ///< job lines consumed (parse errors incl.)
  std::uint64_t failed = 0;      ///< jobs that emitted an error line
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t intake_misses = 0;  ///< misses run on intake, rings full
  std::uint64_t shed = 0;        ///< jobs rejected at intake (kind "shed")
  std::uint64_t deadline_errors = 0;  ///< jobs whose final record timed out
  double wall_s = 0.0;
  double jobs_per_sec() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(jobs) / wall_s : 0.0;
  }
};

class SweepService {
 public:
  explicit SweepService(ServiceOptions opts = {});
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Stream jobs from @p in until EOF (or request_stop()): per-job JSONL
  /// result lines plus a trailing SweepSummary JSON object are written to
  /// @p out.  A record is written as soon as it is next in job order —
  /// while intake waits on input or on in-flight jobs, by the worker that
  /// finished it, one thread at a time — and @p out is flushed whenever
  /// intake may block: before a read that may (in.rdbuf()->in_avail() <=
  /// 0) and while it waits.  May be called repeatedly on
  /// one service (the cache persists across calls — that is the warm
  /// path).  Not reentrant: one serve() at a time.
  ServiceStats serve(std::istream& in, std::ostream& out);

  /// Graceful drain: stop consuming new input after the current line,
  /// finish everything in flight, flush the reorder window, emit the
  /// summary, and return from serve().  Safe from any thread (including
  /// signal-ish contexts: one relaxed atomic store).
  void request_stop() noexcept;

  /// The batch reference path: read ALL job lines, run them through
  /// simbar::SweepDriver::run_with_metrics_isolated, and render the same
  /// stream serve() produces — byte-identical, no cache, no rings.
  /// @param workers SweepDriver pool width; 0 = hardware concurrency.
  static ServiceStats run_oneshot(std::istream& in, std::ostream& out,
                                  int workers = 0);

  int workers() const noexcept;
  const ResultCache& cache() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace armbar::svc

#pragma once
// Phase-aware operation tracing for the simulator.
//
// When attached to a MemSystem, a Tracer records every costed memory
// operation (reads, writes/RMWs, waiter polls) with its issue/finish
// instants, core, cacheline, and the latency layer the transfer crossed.
// Barrier programs additionally annotate *phase spans* — arrival /
// notification, optionally per round or tree level — via the scoped
// PhaseScope API, and every recorded operation is attributed to the
// innermost span open on its core at record time.
//
// Two products come out of a trace:
//  * the bounded event/span log, exportable as CSV or Chrome trace-event /
//    Perfetto JSON (armbar/obs/perfetto.hpp) — one timeline track per
//    core, invaluable for understanding why a barrier schedule stalls;
//  * per-phase counters (ops, layer-bucketed remote transfers, RFO
//    invalidations, busy/span time) that are *never* capacity-bounded:
//    the per-phase layer histograms always sum to the memory system's
//    total transfer counts even when the event log overflows.  These feed
//    armbar::obs::MetricsReport.  See docs/TRACING.md for the schema.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "armbar/obs/phase.hpp"
#include "armbar/sim/engine.hpp"
#include "armbar/util/vtime.hpp"

namespace armbar::sim {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kRead,   ///< costed read (hit or miss)
    kWrite,  ///< plain store transaction
    kRmw,    ///< atomic read-modify-write transaction
    kPoll,   ///< waiter re-poll triggered by a write
  };

  util::Picos start = 0;
  util::Picos finish = 0;
  std::int32_t core = -1;
  std::int32_t line = -1;
  Kind kind = Kind::kRead;
  /// Latency layer the transfer crossed (machine layer index), or -1 for
  /// a local hit / cold fill with no remote transfer.
  std::int8_t layer = -1;
  /// Phase of the innermost span open on `core` when the operation was
  /// recorded (filled in by Tracer::record, not by the memory system).
  obs::Phase phase = obs::Phase::kNone;
  /// Round / tree level of that span, or -1.
  std::int16_t round = -1;
};

/// Human-readable kind name ("read", "write", "rmw", "poll").
std::string to_string(TraceEvent::Kind kind);

/// Bounded in-memory event recorder with phase attribution.  Disabled by
/// default; event/span recording silently stops when the capacity is
/// reached (`dropped()` / `dropped_spans()` report how many did not fit),
/// but the per-phase counters keep counting regardless.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  void record(TraceEvent ev);

  /// Count @p n RFO invalidations against core's current phase (called by
  /// the memory system once per write transaction; independent of event
  /// capacity).
  void add_rfo(int core, std::uint64_t n);

  // -- phase spans ----------------------------------------------------------

  /// One closed phase span on a core's timeline.  Spans nest: `depth` is
  /// the number of spans still open on the core underneath this one, so a
  /// depth-1 round span sits inside its depth-0 phase span.
  struct PhaseSpan {
    util::Picos start = 0;
    util::Picos finish = 0;
    std::int32_t core = -1;
    obs::Phase phase = obs::Phase::kNone;
    std::int16_t round = -1;  ///< round / tree level, or -1
    std::int16_t depth = 0;
  };

  /// Open a span on @p core at time @p now.  Spans on one core must be
  /// closed in LIFO order (end_phase).
  void begin_phase(int core, obs::Phase phase, int round, util::Picos now);
  /// Close the innermost open span on @p core; no-op if none is open.
  void end_phase(int core, util::Picos now);
  /// Phase of the innermost open span on @p core (kNone if none).
  obs::Phase current_phase(int core) const noexcept;
  /// Round / tree level of the innermost open span on @p core (-1 if none).
  int current_round(int core) const noexcept;

  /// Last recorded operation of a core — like the per-phase counters this
  /// is never capacity-bounded, so it stays valid after the event log
  /// overflows.  Feeds sim::CoreDiagnostic when a watchdog aborts a run.
  struct LastOp {
    std::int32_t line = -1;       ///< cacheline touched, -1 = none yet
    util::Picos finish_ps = 0;    ///< finish instant of that operation
  };
  LastOp last_op(int core) const noexcept;

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<PhaseSpan>& spans() const noexcept { return spans_; }
  std::size_t dropped() const noexcept { return dropped_; }
  std::size_t dropped_spans() const noexcept { return dropped_spans_; }
  std::size_t capacity() const noexcept { return capacity_; }
  void clear();

  // -- per-phase counters (never capacity-bounded) --------------------------

  struct PhaseCounters {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rmws = 0;
    std::uint64_t polls = 0;
    /// Operations with no remote transfer (hits and cold fills).
    std::uint64_t local_ops = 0;
    /// Copies invalidated by this phase's write/rmw transactions.
    std::uint64_t rfo_invalidations = 0;
    /// Sum of event durations.
    util::Picos busy_ps = 0;
    /// Total time inside *outermost* spans of this phase, summed over
    /// cores (nested round spans are not double-counted).
    util::Picos span_ps = 0;
    /// Per-episode critical path: element k is the longest k-th outermost
    /// span of this phase over all cores (every core opens one outermost
    /// arrival/notification span per episode, so k indexes episodes).
    /// The arrival entry is the serial floor no wake-up policy can beat —
    /// what the autotuner's phase prune keys on.  Exact regardless of the
    /// span-log capacity.
    std::vector<util::Picos> episode_max_span_ps;
    /// Remote transfers by machine latency layer; grown on demand.  Sums
    /// (across phases) to MemStats::layer_transfers exactly.
    std::vector<std::uint64_t> layer_transfers;

    std::uint64_t total_ops() const noexcept {
      return reads + writes + rmws + polls;
    }
    std::uint64_t remote_transfers() const noexcept {
      std::uint64_t total = 0;
      for (const std::uint64_t n : layer_transfers) total += n;
      return total;
    }
  };

  /// Counters for one phase (indexed by obs::Phase).
  const PhaseCounters& phase_counters(obs::Phase p) const noexcept {
    return counters_[static_cast<std::size_t>(p)];
  }

  /// Per-core aggregate over the recorded events.
  struct CoreSummary {
    int core = -1;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rmws = 0;
    std::uint64_t polls = 0;
    util::Picos busy_ps = 0;  ///< sum of event durations
  };
  std::vector<CoreSummary> summarize(int num_cores) const;

  /// CSV: start_ps,finish_ps,core,line,kind,layer,phase,round
  std::string to_csv() const;

  static constexpr std::size_t kDefaultCapacity = 1 << 20;

 private:
  struct OpenSpan {
    util::Picos start;
    obs::Phase phase;
    std::int16_t round;
  };

  std::vector<TraceEvent> events_;
  std::vector<PhaseSpan> spans_;
  /// Per-core stack of open spans (lazily grown to the largest core seen).
  std::vector<std::vector<OpenSpan>> open_;
  /// Per-core count of closed outermost spans per phase (the episode
  /// index feeding PhaseCounters::episode_max_span_ps).
  std::vector<std::array<std::uint32_t, obs::kNumPhases>> span_seq_;
  /// Per-core last recorded operation (lazily grown, never bounded).
  std::vector<LastOp> last_op_;
  PhaseCounters counters_[obs::kNumPhases];
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::size_t dropped_spans_ = 0;
};

/// RAII phase annotation for simulated barrier code.  Opens a span on
/// construction and closes it when the scope exits (coroutine frames keep
/// the object alive across co_awaits, so the span brackets the simulated
/// time the enclosed operations take).  A null tracer makes both ends
/// no-ops — barrier code can annotate unconditionally at zero cost when
/// tracing is disabled.
class PhaseScope {
 public:
  PhaseScope(Tracer* tracer, Engine& engine, int core, obs::Phase phase,
             int round = -1)
      : tracer_(tracer), engine_(engine), core_(core) {
    if (tracer_) tracer_->begin_phase(core, phase, round, engine.now());
  }
  ~PhaseScope() {
    if (tracer_) tracer_->end_phase(core_, engine_.now());
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Tracer* tracer_;
  Engine& engine_;
  int core_;
};

}  // namespace armbar::sim

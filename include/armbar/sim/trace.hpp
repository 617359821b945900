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
  /// recorded (filled in by the Tracer, not by the memory system).
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
///
/// Cost: the counting is inline.  An attached tracer is sized from the
/// machine (cores, latency layers) by MemSystem::set_tracer, so counting
/// one operation is a handful of increments on pre-sized flat arrays, and
/// opening or closing a span a push or pop on its core's stack.  Only the
/// bounded log appends leave the inline path, and only while the log has
/// room: a capacity-0 tracer pays for its counters and nothing else.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Attribute @p ev to the innermost span open on its core (its phase and
  /// round fields are overwritten; an event with no core, or whose core
  /// has no span open, is attributed to kNone), count it, and append it
  /// to the log if there is room.  Grows the per-core and per-layer state
  /// as needed, so it accepts any core and layer.
  void record(TraceEvent ev);

  /// Count @p n RFO invalidations against core's current phase,
  /// independent of event capacity.  (The memory system's traced writes
  /// count theirs together with the write itself.)
  void add_rfo(int core, std::uint64_t n) noexcept {
    counters_[static_cast<std::size_t>(current_phase(core))]
        .rfo_invalidations += n;
  }

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
  /// closed in LIFO order (end_phase).  A negative core is ignored.
  [[gnu::always_inline]] void begin_phase(int core, obs::Phase phase,
                                          int round, util::Picos now) {
    if (core < 0) return;
    const auto ci = static_cast<std::size_t>(core);
    if (ci >= cores_.size()) fit(core + 1, 0);
    CoreState& s = cores_[ci];
    s.open.push_back(OpenSpan{now, s.phase, s.round});
    s.phase = phase;
    s.round = static_cast<std::int16_t>(round);
  }

  /// Close the innermost open span on @p core; no-op if none is open.
  [[gnu::always_inline]] void end_phase(int core, util::Picos now) {
    if (core < 0 || static_cast<std::size_t>(core) >= cores_.size()) return;
    CoreState& s = cores_[static_cast<std::size_t>(core)];
    if (s.open.empty()) return;
    const OpenSpan top = s.open.back();
    s.open.pop_back();
    const obs::Phase phase = s.phase;
    const std::int16_t round = s.round;
    s.phase = top.outer_phase;
    s.round = top.outer_round;
    if (s.open.empty()) {
      // Outermost-span accounting (before any capacity check, like the
      // other counters): total span time plus the per-episode critical
      // path — the k-th outermost span of a phase on a core is that
      // core's k-th episode, so the max over cores per k is the phase's
      // serial floor for that episode.
      const auto p = static_cast<std::size_t>(phase);
      PhaseCounters& c = counters_[p];
      const util::Picos dur = now - top.start;
      c.span_ps += dur;
      const std::uint32_t k = s.episodes[p]++;
      if (c.episode_max_span_ps.size() <= k) add_episode(c, k);
      util::Picos& longest = c.episode_max_span_ps[k];
      if (dur > longest) longest = dur;
    }
    if (spans_.size() < capacity_)
      log_span(PhaseSpan{top.start, now, core, phase, round,
                         static_cast<std::int16_t>(s.open.size())});
    else
      ++dropped_spans_;
  }

  /// Phase of the innermost open span on @p core (kNone if none).
  obs::Phase current_phase(int core) const noexcept {
    return core >= 0 && static_cast<std::size_t>(core) < cores_.size()
               ? cores_[static_cast<std::size_t>(core)].phase
               : obs::Phase::kNone;
  }
  /// Round / tree level of the innermost open span on @p core (-1 if none).
  int current_round(int core) const noexcept {
    return core >= 0 && static_cast<std::size_t>(core) < cores_.size()
               ? cores_[static_cast<std::size_t>(core)].round
               : -1;
  }

  /// Last recorded operation of a core — like the per-phase counters this
  /// is never capacity-bounded, so it stays valid after the event log
  /// overflows.  Feeds sim::CoreDiagnostic when a watchdog aborts a run.
  struct LastOp {
    std::int32_t line = -1;       ///< cacheline touched, -1 = none yet
    util::Picos finish_ps = 0;    ///< finish instant of that operation
  };
  LastOp last_op(int core) const noexcept {
    return core >= 0 && static_cast<std::size_t>(core) < cores_.size()
               ? cores_[static_cast<std::size_t>(core)].last_op
               : LastOp{};
  }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<PhaseSpan>& spans() const noexcept { return spans_; }
  std::size_t dropped() const noexcept { return dropped_; }
  std::size_t dropped_spans() const noexcept { return dropped_spans_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Forget everything recorded (logs, counters, open spans); the sizing
  /// from fit() is kept, so an attached tracer stays attached.
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
    /// Remote transfers by machine latency layer: one entry per layer of
    /// the machine the tracer was attached to (grown further by record()
    /// for a higher layer).  Sums (across phases) to
    /// MemStats::layer_transfers exactly.
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
  friend class MemSystem;  // sizes the tracer and counts through count()

  /// An open span: its start, and the core's phase and round from before
  /// it opened (restored when it closes).
  struct OpenSpan {
    util::Picos start;
    obs::Phase outer_phase;
    std::int16_t outer_round;
  };

  /// Per-core state, one flat array indexed by core: the innermost open
  /// span's phase and round (what an operation is attributed to), the
  /// count of closed outermost spans per phase (the episode index feeding
  /// PhaseCounters::episode_max_span_ps), the last operation, and the
  /// stack of open spans.  One cacheline per core, so indexing is a shift
  /// and an operation or span touches one line of tracer state.
  struct alignas(64) CoreState {
    obs::Phase phase = obs::Phase::kNone;
    std::int16_t round = -1;
    std::array<std::uint32_t, obs::kNumPhases> episodes{};
    LastOp last_op;
    std::vector<OpenSpan> open;
  };

  /// Grow the per-core state to at least @p num_cores cores and every
  /// phase's layer histogram to at least @p num_layers layers.
  void fit(int num_cores, int num_layers);

  /// The memory system's traced access paths count through here:
  /// attribute @p ev to its core's innermost open span, note the core's
  /// last operation, then tally() it with @p rfo invalidations.  Requires
  /// 0 <= ev.core and ev.layer inside the fit() sizes.  This runs in
  /// engine execution order, which equals simulated-time resumption
  /// order, so a poll issued on behalf of a parked waiter lands in the
  /// phase the waiter was in when it parked.
  [[gnu::always_inline]] void count(TraceEvent ev, std::uint64_t rfo = 0) {
    CoreState& s = cores_[static_cast<std::size_t>(ev.core)];
    ev.phase = s.phase;
    ev.round = s.round;
    s.last_op = LastOp{ev.line, ev.finish};
    tally(ev, rfo);
  }

  /// The one counting body (count() and record() both end here): count
  /// an attributed event against its phase, then log it while there is
  /// room.
  [[gnu::always_inline]] void tally(const TraceEvent& ev, std::uint64_t rfo) {
    PhaseCounters& c = counters_[static_cast<std::size_t>(ev.phase)];
    switch (ev.kind) {
      case TraceEvent::Kind::kRead: ++c.reads; break;
      case TraceEvent::Kind::kWrite: ++c.writes; break;
      case TraceEvent::Kind::kRmw: ++c.rmws; break;
      case TraceEvent::Kind::kPoll: ++c.polls; break;
    }
    c.busy_ps += ev.finish - ev.start;
    c.rfo_invalidations += rfo;
    if (ev.layer >= 0)
      ++c.layer_transfers[static_cast<std::size_t>(ev.layer)];
    else
      ++c.local_ops;
    if (events_.size() < capacity_)
      log_event(ev);
    else
      ++dropped_;
  }

  /// Out-of-line log appends (reached only while the log has room).
  void log_event(const TraceEvent& ev);
  void log_span(const PhaseSpan& span);
  /// Out-of-line: grow @p c's critical path to hold episode @p k.
  void add_episode(PhaseCounters& c, std::uint32_t k);

  std::vector<TraceEvent> events_;
  std::vector<PhaseSpan> spans_;
  std::vector<CoreState> cores_;
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
/// tracing is disabled.  Both ends inline the span bookkeeping into the
/// barrier coroutine; the [[unlikely]] moves it off the untraced
/// fall-through path, so the plain run's coroutine code stays as compact
/// as a null test and a skipped branch (measured: without it the plain
/// perf_sim sweep lost 2-4%).
class PhaseScope {
 public:
  [[gnu::always_inline]] PhaseScope(Tracer* tracer, Engine& engine, int core,
                                    obs::Phase phase, int round = -1)
      : tracer_(tracer), engine_(engine), core_(core) {
    if (tracer_) [[unlikely]]
      tracer_->begin_phase(core, phase, round, engine.now());
  }
  [[gnu::always_inline]] ~PhaseScope() {
    if (tracer_) [[unlikely]]
      tracer_->end_phase(core_, engine_.now());
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Tracer* tracer_;
  Engine& engine_;
  int core_;
};

}  // namespace armbar::sim

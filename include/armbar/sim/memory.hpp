#pragma once
// Simulated cache-coherent memory (paper Section III, executable form).
//
// The model tracks, for every cacheline, which cores hold a valid copy and
// which core wrote last.  Operation costs implement the paper's
// write-invalidate accounting:
//
//   read  hit   : ε
//   read  miss  : L(reader, source)            [O_RR]
//   write       : base + Σ_{s≠writer} α·L(writer, s)
//                 base = ε if the writer holds a copy, else L(writer, src)
//                                               [O_WL / O_WR with RFO]
//   rmw         : like a write (counts the read as part of the exclusive
//                 transaction)
//
// plus the two dynamic effects the paper argues from but cannot fold into
// closed forms:
//
//   * same-line serialization: write/rmw transactions on one line execute
//     one at a time (the "sequential writes" that packed arrival flags
//     suffer from, Section V-B1);
//   * polling-reader contention: each read pays c per other read of the
//     same line still in flight (the c·(P-1) term of eq. 3).
//
// Spinning is event-driven: a spin_until registers the thread as a waiter
// on the line; every completed write re-triggers a (costed) poll read for
// each waiter, so waiters re-join the sharer set even when their predicate
// fails — the re-fetch storm that makes the centralized barrier quadratic
// on a packed counter+generation line.
//
// Policy specialization: the tracer and fault-plan hooks are compile-time
// template parameters of the private access paths (read_at / write_at /
// wake_waiters are templated on <Traced, Faulted>), not per-op runtime
// branches.  set_tracer / set_fault_plan pick one of the four
// instantiations by setting a 2-bit mode once at setup; every public
// operation dispatches on that mode with a single predictable switch and
// the entire costed transaction — including the waiter wake cascade — then
// runs inside the chosen instantiation.  The plain instantiation contains
// zero tracer/fault code, so unhooked runs pay nothing for either feature;
// all four instantiations compute bit-identical timestamps when the hooks
// are inert (asserted by tests/test_policy_paths.cpp).

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "armbar/sim/engine.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/topo/machine.hpp"
#include "armbar/util/bits.hpp"
#include "armbar/util/vtime.hpp"

namespace armbar::fault {
class Plan;  // armbar/fault/plan.hpp
}

namespace armbar::sim {

using VarId = std::int32_t;
using LineId = std::int32_t;

/// Aggregate operation counters (whole memory system).
struct MemStats {
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t local_writes = 0;   ///< writer already held the line
  std::uint64_t remote_writes = 0;  ///< writer had to fetch the line
  std::uint64_t rmws = 0;
  std::uint64_t invalidations = 0;  ///< copies invalidated by writes/rmws
  std::uint64_t poll_reads = 0;     ///< waiter re-reads triggered by writes
  /// Remote transfers whose source/destination crossed each layer; indexed
  /// by machine layer.
  std::vector<std::uint64_t> layer_transfers;
};

/// Spin predicate: the small closed set of comparisons barrier algorithms
/// poll with, kept as a tagged value so each poll evaluates as an inline
/// integer compare — no type-erased call, no allocation.  Every spin in
/// the paper's algorithms is "flag reached my epoch" (ge) or "slot
/// drained/filled" (eq); never() exists for deadlock probes in tests.
struct SpinPred {
  enum class Kind : std::uint8_t { kGe, kEq, kNever };
  Kind kind = Kind::kGe;
  std::uint64_t rhs = 0;

  static SpinPred ge(std::uint64_t rhs) noexcept {
    return {Kind::kGe, rhs};
  }
  static SpinPred eq(std::uint64_t rhs) noexcept {
    return {Kind::kEq, rhs};
  }
  static SpinPred never() noexcept { return {Kind::kNever, 0}; }

  bool operator()(std::uint64_t v) const noexcept {
    switch (kind) {
      case Kind::kGe:
        return v >= rhs;
      case Kind::kEq:
        return v == rhs;
      case Kind::kNever:
        return false;
    }
    return false;  // unreachable
  }
};

class MemSystem {
 public:
  /// The machine description is copied: a MemSystem never dangles even if
  /// the caller passes a temporary.
  MemSystem(Engine& engine, topo::Machine machine);

  const topo::Machine& machine() const noexcept { return machine_; }

  // -- allocation ----------------------------------------------------------

  /// A fresh cacheline with no variables yet.
  LineId new_line();

  /// A variable alone on its own cacheline ("padded").
  VarId new_var(std::uint64_t init = 0);

  /// A variable placed on an existing line ("packed").
  VarId new_var_on(LineId line, std::uint64_t init = 0);

  /// n variables, each on its own line.
  std::vector<VarId> new_padded_array(int n, std::uint64_t init = 0);

  /// n variables packed @p bytes_per_var apart on consecutive lines of the
  /// machine's cacheline size — e.g. 16 four-byte flags per 64-byte line.
  std::vector<VarId> new_packed_array(int n, int bytes_per_var,
                                      std::uint64_t init = 0);

  LineId line_of(VarId v) const;

  /// Value as of the current instant (test/debug accessor; simulated
  /// threads must use the costed operations below).
  std::uint64_t peek(VarId v) const;
  void poke(VarId v, std::uint64_t value);

  // -- costed operations (awaitables) --------------------------------------

  class [[nodiscard]] OpAwaiter {
   public:
    OpAwaiter(Engine& engine, Picos finish, std::uint64_t result)
        : engine_(engine), finish_(finish), result_(result) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      engine_.schedule(finish_, h);
    }
    std::uint64_t await_resume() const noexcept { return result_; }

   private:
    Engine& engine_;
    Picos finish_;
    std::uint64_t result_;
  };

  class [[nodiscard]] SpinAwaiter;
  class [[nodiscard]] SpinAllAwaiter;

  /// Read @p v from @p core.  co_await yields the value.
  OpAwaiter read(int core, VarId v);

  /// Write @p value to @p v from @p core.  co_await yields @p value.
  OpAwaiter write(int core, VarId v, std::uint64_t value);

  /// Atomic read-modify-write; @p f maps old value to new value.
  /// co_await yields the OLD value.
  OpAwaiter rmw(int core, VarId v,
                const std::function<std::uint64_t(std::uint64_t)>& f);

  OpAwaiter fetch_add(int core, VarId v, std::uint64_t delta);
  OpAwaiter fetch_sub(int core, VarId v, std::uint64_t delta);

  /// Spin until pred(value of v) holds, re-polling after every write to
  /// the line.  co_await yields the satisfying value.
  SpinAwaiter spin_until(int core, VarId v, SpinPred pred);

  /// Spin until pred holds for EVERY variable in @p vars (one shared
  /// predicate — e.g. "flag >= epoch").  The initial polls are issued
  /// together, so misses to distinct lines overlap, bounded by the
  /// machine's mlp_delay; this is how a real core's poll loop over
  /// several padded flags behaves, and it is what makes wide fan-ins
  /// profitable (Section V-B2).  The watched ids are copied out before
  /// the call returns, into a buffer @p core reuses for every such spin:
  /// a core has at most one spin outstanding (placements are distinct),
  /// so callers with a fixed watch set (the tree barriers' precomputed
  /// child lists) pass the same span every episode and nothing is
  /// allocated per call.  co_await yields nothing.
  SpinAllAwaiter spin_until_all(int core, std::span<const VarId> vars,
                                SpinPred pred);

  const MemStats& stats() const noexcept { return stats_; }
  void reset_stats();

  /// Which specialized access-path instantiation operations dispatch to.
  /// Fixed by set_tracer / set_fault_plan — i.e. once per run at
  /// measure_barrier setup — never re-examined mid-operation.
  enum class PathMode : std::uint8_t {
    kPlain = 0,          ///< no tracer, no fault plan (zero-overhead path)
    kTraced = 1,         ///< tracer attached
    kFaulted = 2,        ///< fault plan attached
    kTracedFaulted = 3,  ///< both attached
  };
  PathMode path_mode() const noexcept {
    return static_cast<PathMode>(mode_);
  }

  /// Attach an operation tracer (nullptr detaches).  Not owned; must
  /// outlive the simulation run.  Sizes the tracer's per-core and
  /// per-layer counters for this machine, so the Traced instantiations of
  /// the access paths count inline with no growth checks; with no tracer
  /// the hot path contains no tracer code at all.
  void set_tracer(Tracer* tracer) {
    if (tracer != nullptr)
      tracer->fit(machine_.num_cores(), machine_.num_layers());
    tracer_ = tracer;
    update_mode();
  }

  /// The attached tracer, or nullptr.  Barrier programs use this to open
  /// phase spans (sim::PhaseScope) against the run's tracer.
  Tracer* tracer() const noexcept { return tracer_; }

  /// Attach a fault-injection plan (nullptr detaches).  Not owned; must
  /// outlive the run and must have been built for at least this machine's
  /// core and layer counts (checked).  Every costed operation then pays
  /// the plan's perturbations: issue deferred past noise pulses, cost
  /// scaled by the core's straggler factor, degraded-layer surcharges on
  /// remote transfers.  Selects the Faulted instantiations of the access
  /// paths; with no plan (or an inert one, which is not attached) the hot
  /// path contains no fault code at all, so unperturbed runs stay
  /// bit-identical to a build without faults.
  void set_fault_plan(const fault::Plan* plan);
  const fault::Plan* fault_plan() const noexcept { return fault_; }

  /// Contention report: the @p top_n busiest cachelines by transaction
  /// count (reads + writes + polls), busiest first.  The hot line of a
  /// centralized barrier is its counter line; a well-padded tree barrier
  /// has no line much hotter than the rest.
  struct HotLine {
    LineId line = -1;
    std::uint64_t reads = 0;   ///< costed reads incl. polls
    std::uint64_t writes = 0;  ///< write/rmw transactions
    std::uint64_t total() const noexcept { return reads + writes; }
  };
  std::vector<HotLine> hot_lines(int top_n = 10) const;

  Engine& engine() noexcept { return engine_; }

 private:
  /// A parked poller.  Frames are suspended while parked, so addresses
  /// are stable.
  struct WaiterBase {
    explicit WaiterBase(int core) : core_(core) {}
    virtual ~WaiterBase() = default;
    /// Called after a write to @p line; a costed poll read by core_ has
    /// already been issued, finishing at @p read_finish.  Return true to
    /// stay parked on this line.
    virtual bool on_line_write(MemSystem& mem, LineId line,
                               Picos read_finish) = 0;
    int core_;
  };

  /// Compact multiset of in-flight completion times.  Only the count of
  /// still-pending entries feeds the contention model, so the storage is
  /// an unordered flat vector with a cached minimum: count_at() answers in
  /// O(1) while nothing has expired (`at < min`, the common case — this is
  /// the hottest query of a sweep, several calls per simulated operation),
  /// and compacts with one swap-pop sweep when the minimum lapses.
  /// Expiries cluster at round boundaries in barrier traffic, so a sweep
  /// usually retires many entries at once; a min-heap variant (O(log n)
  /// add, pop-per-expiry) measured ~35% slower per event on the
  /// dissemination sweep because it pays the heap maintenance on every
  /// add while the flat sweep amortizes.  The backing vector keeps its
  /// capacity across a run.
  struct InflightSet {
    static constexpr Picos kNone = ~Picos{0};

    std::vector<Picos> finish;
    Picos min_finish = kNone;

    void add(Picos f) {
      finish.push_back(f);
      if (f < min_finish) min_finish = f;
    }

    /// Number of entries still in flight at @p at (> at); expired entries
    /// are removed.
    int count_at(Picos at) noexcept {
      if (at < min_finish) return static_cast<int>(finish.size());
      Picos min = kNone;
      std::size_t n = finish.size();
      for (std::size_t i = 0; i < n;) {
        const Picos f = finish[i];
        if (f <= at) {
          finish[i] = finish[--n];  // swap-pop: order is irrelevant
        } else {
          if (f < min) min = f;
          ++i;
        }
      }
      finish.resize(n);
      min_finish = min;
      return static_cast<int>(n);
    }
  };

  struct Var {
    LineId line;
    std::uint64_t value;
  };

  /// One (line, var) pair a SpinAllAwaiter still watches.  Its pending
  /// list is a single flat vector ordered by line id, insertion order
  /// preserved within a line: the watch sets are small and scanned
  /// linearly, so one contiguous buffer settles and erases cheaper than a
  /// line -> vars map.
  struct PendingVar {
    LineId line;
    VarId var;
  };

  /// Costed read issued at @p issue; returns its finish time.  The
  /// <Traced, Faulted> instantiation is chosen once per run (mode_); the
  /// plain one compiles to straight-line cost arithmetic with no hook
  /// branches.
  template <bool Traced, bool Faulted>
  Picos read_at(int core, LineId line, Picos issue, bool is_poll);
  /// Costed write/rmw issued at @p issue; returns its finish time and
  /// wakes parked pollers at that time (within the same instantiation).
  template <bool Traced, bool Faulted>
  Picos write_at(int core, LineId line, Picos issue, bool is_rmw);
  template <bool Traced, bool Faulted>
  void wake_waiters(LineId line, Picos when);

  /// Mode-dispatched entry points: one switch on mode_, then the whole
  /// transaction runs specialized.
  Picos read_at_mode(int core, LineId line, Picos issue, bool is_poll);
  Picos write_at_mode(int core, LineId line, Picos issue, bool is_rmw);

  /// Cheapest source core for a fetch by @p core given a sharer mask and
  /// the line's owner, or -1 when no other core holds a copy.
  int pick_source(const std::uint64_t* sharer, int owner, int core) const;
  void check_core(int core) const;

  void update_mode() noexcept {
    mode_ = static_cast<std::uint8_t>((tracer_ != nullptr ? 1u : 0u) |
                                      (fault_ != nullptr ? 2u : 0u));
  }

  std::size_t num_lines() const noexcept { return line_owner_.size(); }

  /// Sharer mask of @p line: sharer_stride_ words inside the contiguous
  /// directory array.
  std::uint64_t* sharer_of(LineId line) noexcept {
    return sharer_words_.data() +
           static_cast<std::size_t>(line) * sharer_stride_;
  }
  const std::uint64_t* sharer_of(LineId line) const noexcept {
    return sharer_words_.data() +
           static_cast<std::size_t>(line) * sharer_stride_;
  }

  Engine& engine_;
  topo::Machine machine_;
  /// Coherence directory, SoA: per-line metadata lives in parallel arrays
  /// indexed by line id instead of one array-of-struct.  A transaction
  /// touches owner/busy/read-set on its own line only, so the AoS layout
  /// dragged a waiter-list header and two lifetime counters into cache on
  /// every access; split out, the three hot arrays pack 8-16 lines per
  /// cacheline each and the cold counters are only touched by writes and
  /// the end-of-run hot_lines() report.
  std::vector<int> line_owner_;     ///< last writer / first reader, -1 none
  std::vector<Picos> line_busy_;    ///< end of last exclusive transaction
  std::vector<InflightSet> line_reads_;  ///< in-flight read completions
  std::vector<std::vector<WaiterBase*>> line_waiters_;
  std::vector<std::uint64_t> line_read_count_;   ///< lifetime reads+polls
  std::vector<std::uint64_t> line_write_count_;  ///< lifetime writes/rmws
  /// All lines' sharer bitmasks, one flat word array, sharer_stride_ =
  /// words_for_bits(num_cores) words per line.
  std::vector<std::uint64_t> sharer_words_;
  std::size_t sharer_stride_ = 1;
  std::vector<Var> vars_;
  /// Per-core in-flight miss completion times (MLP accounting).
  std::vector<InflightSet> core_miss_finish_;
  /// Machine-wide in-flight remote transfers (network contention).
  InflightSet net_inflight_;
  /// Scratch masks reused across write transactions (RFO holder set);
  /// avoids a heap allocation per write.
  util::BitWords holder_scratch_;
  /// Scratch list reused by wake_waiters (keeps its capacity between
  /// wake-ups; wake_waiters never re-enters itself).
  std::vector<WaiterBase*> wake_scratch_;
  /// Per-core pending lists of spin_until_all, reused across spins (they
  /// keep their capacity); a core has at most one spin outstanding.
  std::vector<std::vector<PendingVar>> spin_all_pending_;
  Tracer* tracer_ = nullptr;
  /// Fault-injection plan; nullptr (the default) = unperturbed.
  const fault::Plan* fault_ = nullptr;
  /// Bit 0: tracer attached, bit 1: fault plan attached — the PathMode
  /// index of the access-path instantiation in use.
  std::uint8_t mode_ = 0;
  MemStats stats_;
};

/// Spin awaitable: performs an initial costed poll; if the predicate fails
/// it parks the thread on the line's waiter list, and MemSystem re-polls
/// it (with read costs) after every write until the predicate holds.
class [[nodiscard]] MemSystem::SpinAwaiter final : public MemSystem::WaiterBase {
 public:
  SpinAwaiter(MemSystem& mem, int core, VarId var, SpinPred pred)
      : WaiterBase(core), mem_(mem), var_(var), pred_(pred) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  std::uint64_t await_resume() const noexcept { return result_; }

 private:
  friend class MemSystem;
  bool on_line_write(MemSystem& mem, LineId line, Picos read_finish) override;

  MemSystem& mem_;
  VarId var_;
  SpinPred pred_;
  std::coroutine_handle<> handle_;
  std::uint64_t result_ = 0;
};

/// Batched spin awaitable: waits until the shared predicate holds for all
/// variables.  Initial polls are issued together (overlapping misses,
/// bounded by mlp_delay); afterwards each line re-polls independently on
/// writes, one read per line regardless of how many watched variables
/// share it.
class [[nodiscard]] MemSystem::SpinAllAwaiter final
    : public MemSystem::WaiterBase {
 public:
  SpinAllAwaiter(MemSystem& mem, int core, std::span<const VarId> vars,
                 SpinPred pred);

  bool await_ready() const noexcept { return remaining_ == 0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  friend class MemSystem;
  bool on_line_write(MemSystem& mem, LineId line, Picos read_finish) override;
  /// Drop satisfied vars of @p line from the pending list.  Returns true
  /// if vars remain pending on the line.
  bool settle_line(LineId line);

  MemSystem& mem_;
  SpinPred pred_;
  /// The core's reused list (MemSystem::spin_all_pending_).
  std::vector<PendingVar>& pending_;
  int remaining_ = 0;
  Picos latest_read_ = 0;  ///< resume no earlier than the slowest poll
  std::coroutine_handle<> handle_;
};

}  // namespace armbar::sim

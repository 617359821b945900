#include "armbar/sim/memory.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "armbar/fault/plan.hpp"

namespace armbar::sim {

MemSystem::MemSystem(Engine& engine, topo::Machine machine)
    : engine_(engine), machine_(std::move(machine)) {
  stats_.layer_transfers.assign(
      static_cast<std::size_t>(machine_.num_layers()), 0);
  core_miss_finish_.resize(static_cast<std::size_t>(machine_.num_cores()));
  spin_all_pending_.resize(static_cast<std::size_t>(machine_.num_cores()));
  holder_scratch_.assign(static_cast<std::size_t>(machine_.num_cores()));
  sharer_stride_ =
      util::words_for_bits(static_cast<std::size_t>(machine_.num_cores()));
  // Barrier data structures allocate O(P log P) lines (dissemination's
  // P·ceil(log2 P) flags is the largest of the implemented algorithms);
  // reserving 8 lines per core covers every algorithm up to the machine
  // size without reallocation during construction.
  const auto cores = static_cast<std::size_t>(machine_.num_cores());
  line_owner_.reserve(8 * cores);
  line_busy_.reserve(8 * cores);
  line_reads_.reserve(8 * cores);
  line_waiters_.reserve(8 * cores);
  line_read_count_.reserve(8 * cores);
  line_write_count_.reserve(8 * cores);
  vars_.reserve(8 * cores);
  sharer_words_.reserve(8 * cores * sharer_stride_);
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

LineId MemSystem::new_line() {
  line_owner_.push_back(-1);
  line_busy_.push_back(0);
  line_reads_.emplace_back();
  line_waiters_.emplace_back();
  line_read_count_.push_back(0);
  line_write_count_.push_back(0);
  sharer_words_.insert(sharer_words_.end(), sharer_stride_, 0);
  return static_cast<LineId>(num_lines() - 1);
}

VarId MemSystem::new_var(std::uint64_t init) {
  return new_var_on(new_line(), init);
}

VarId MemSystem::new_var_on(LineId line, std::uint64_t init) {
  if (line < 0 || static_cast<std::size_t>(line) >= num_lines())
    throw std::out_of_range("MemSystem::new_var_on: bad line");
  vars_.push_back(Var{line, init});
  return static_cast<VarId>(vars_.size() - 1);
}

std::vector<VarId> MemSystem::new_padded_array(int n, std::uint64_t init) {
  std::vector<VarId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(new_var(init));
  return out;
}

std::vector<VarId> MemSystem::new_packed_array(int n, int bytes_per_var,
                                               std::uint64_t init) {
  if (bytes_per_var < 1)
    throw std::invalid_argument("new_packed_array: bytes_per_var >= 1");
  const int per_line =
      std::max(1, machine_.cacheline_bytes() / bytes_per_var);
  std::vector<VarId> out;
  out.reserve(static_cast<std::size_t>(n));
  LineId line = -1;
  for (int i = 0; i < n; ++i) {
    if (i % per_line == 0) line = new_line();
    out.push_back(new_var_on(line, init));
  }
  return out;
}

LineId MemSystem::line_of(VarId v) const {
  return vars_.at(static_cast<std::size_t>(v)).line;
}

std::uint64_t MemSystem::peek(VarId v) const {
  return vars_.at(static_cast<std::size_t>(v)).value;
}

void MemSystem::poke(VarId v, std::uint64_t value) {
  vars_.at(static_cast<std::size_t>(v)).value = value;
}

void MemSystem::set_fault_plan(const fault::Plan* plan) {
  if (plan != nullptr && plan->active()) {
    if (plan->num_cores() < machine_.num_cores())
      throw std::invalid_argument(
          "MemSystem::set_fault_plan: plan built for " +
          std::to_string(plan->num_cores()) + " cores, machine has " +
          std::to_string(machine_.num_cores()));
    if (plan->num_layers() < machine_.num_layers())
      throw std::invalid_argument(
          "MemSystem::set_fault_plan: plan built for " +
          std::to_string(plan->num_layers()) + " layers, machine has " +
          std::to_string(machine_.num_layers()));
    fault_ = plan;
  } else {
    // Inert plans are not attached at all: without a plan the dispatch
    // selects the non-Faulted instantiations and the hot path contains no
    // fault code whatsoever.
    fault_ = nullptr;
  }
  update_mode();
}

void MemSystem::reset_stats() {
  stats_ = MemStats{};
  stats_.layer_transfers.assign(
      static_cast<std::size_t>(machine_.num_layers()), 0);
}

// ---------------------------------------------------------------------------
// Cost helpers
// ---------------------------------------------------------------------------

void MemSystem::check_core(int core) const {
  if (core < 0 || core >= machine_.num_cores())
    throw std::out_of_range("MemSystem: core index out of range");
}

int MemSystem::pick_source(const std::uint64_t* sharer, int owner,
                           int core) const {
  // Prefer the owner (last writer); otherwise forward from the nearest
  // valid copy (deterministic tie-break on core index: the scan over set
  // bits is ascending and only a strictly cheaper source replaces the
  // current best).
  if (owner >= 0 && owner != core &&
      util::bit_test(sharer, static_cast<std::size_t>(owner)))
    return owner;
  int best = -1;
  util::Picos best_cost = std::numeric_limits<util::Picos>::max();
  util::for_each_set_bit(sharer, sharer_stride_, [&](std::size_t s) {
    const int si = static_cast<int>(s);
    if (si == core) return;
    const util::Picos cost = machine_.comm_ps_fast(core, si);
    if (cost < best_cost) {
      best = si;
      best_cost = cost;
    }
  });
  return best;
}

// ---------------------------------------------------------------------------
// Specialized access paths
//
// One instantiation per PathMode.  The Traced/Faulted hooks are compiled
// in or out with if constexpr; the plain <false, false> bodies are the
// exact pre-hook hot path — no tracer pointer test, no fault pointer
// test, nothing to mispredict.  All four instantiations perform the same
// cost arithmetic in the same order, so an inert hook (capacity-0 tracer,
// neutral plan) changes nothing but wall-clock speed.
// ---------------------------------------------------------------------------

template <bool Traced, bool Faulted>
Picos MemSystem::read_at(int core, LineId line, Picos issue, bool is_poll) {
  const auto li = static_cast<std::size_t>(line);
  std::uint64_t* const sharer = sharer_of(line);
  // Fault injection: a core preempted by an OS-noise pulse cannot issue
  // until the pulse ends.
  if constexpr (Faulted) issue = fault_->release(core, issue);
  const Picos start = std::max(issue, line_busy_[li]);

  if (is_poll) ++stats_.poll_reads;

  ++line_read_count_[li];
  if (util::bit_test(sharer, static_cast<std::size_t>(core))) {
    ++stats_.local_reads;
    const Picos finish = start + machine_.epsilon_ps();
    if constexpr (Traced)
      tracer_->count({start, finish, core, line,
                      is_poll ? TraceEvent::Kind::kPoll
                              : TraceEvent::Kind::kRead});
    return finish;
  }

  const int src = pick_source(sharer, line_owner_[li], core);
  Picos cost;
  std::int8_t layer = -1;
  if (src == -1) {
    // Cold line: no cached copy anywhere; abstracted as a local fill.
    cost = machine_.epsilon_ps();
  } else {
    const std::uint64_t e = machine_.comm_entry_fast(core, src);
    cost = topo::Machine::entry_ps(e);
    layer = static_cast<std::int8_t>(topo::Machine::entry_layer(e));
    ++stats_.layer_transfers[static_cast<std::size_t>(layer)];
    if constexpr (Faulted) cost += fault_->link_extra(layer, cost, start);
  }
  // Reader contention (eq. 3's c term): pay c per other read of this line
  // still in flight when ours starts.
  cost += machine_.contention_ps() *
          static_cast<Picos>(line_reads_[li].count_at(start));
  // Memory-level-parallelism bound: each additional miss this core has in
  // flight delays the response delivery.
  auto& mine = core_miss_finish_[static_cast<std::size_t>(core)];
  cost += machine_.mlp_delay_ps() * static_cast<Picos>(mine.count_at(start));
  // Machine-wide network contention: every other remote transfer currently
  // in flight adds a small queuing delay (the on-chip network saturation
  // that hurts the dissemination barrier's all-pairs traffic).
  const bool is_remote_transfer = src != -1;
  if (is_remote_transfer)
    cost += machine_.net_contention_ps() *
            static_cast<Picos>(net_inflight_.count_at(start));
  // Straggler model: a slowed core executes the whole operation slower
  // (Markov plans evaluate the core's state at the transaction start).
  if constexpr (Faulted) cost = fault_->scale(core, start, cost);

  const Picos finish = start + cost;
  line_reads_[li].add(finish);
  mine.add(finish);
  if (is_remote_transfer) net_inflight_.add(finish);
  util::bit_set(sharer, static_cast<std::size_t>(core));
  if (line_owner_[li] == -1) line_owner_[li] = core;
  ++stats_.remote_reads;
  if constexpr (Traced)
    tracer_->count({start, finish, core, line,
                    is_poll ? TraceEvent::Kind::kPoll
                            : TraceEvent::Kind::kRead,
                    layer});
  return finish;
}

template <bool Traced, bool Faulted>
Picos MemSystem::write_at(int core, LineId line, Picos issue, bool is_rmw) {
  const auto li = static_cast<std::size_t>(line);
  std::uint64_t* const sharer = sharer_of(line);
  // Fault injection: a core preempted by an OS-noise pulse (or a
  // machine-wide burst) cannot issue until the pulse ends; the straggler
  // factor is fetched once at the transaction start and applied to every
  // scaled component of this transaction below.
  if constexpr (Faulted) issue = fault_->release(core, issue);
  // Exclusive transactions on a line serialize (packed-flag effect).
  const Picos start = std::max(issue, line_busy_[li]);
  std::uint32_t straggle_milli = 1000;
  if constexpr (Faulted) straggle_milli = fault_->scale_milli(core, start);

  ++line_write_count_[li];
  Picos base;
  bool fetched_remotely = false;
  std::int8_t layer = -1;
  if (util::bit_test(sharer, static_cast<std::size_t>(core))) {
    base = machine_.epsilon_ps();
    ++(is_rmw ? stats_.rmws : stats_.local_writes);
  } else {
    const int src = pick_source(sharer, line_owner_[li], core);
    if (src == -1) {
      base = machine_.epsilon_ps();
    } else {
      const std::uint64_t e = machine_.comm_entry_fast(core, src);
      base = topo::Machine::entry_ps(e);
      fetched_remotely = true;
      layer = static_cast<std::int8_t>(topo::Machine::entry_layer(e));
      ++stats_.layer_transfers[static_cast<std::size_t>(layer)];
      if constexpr (Faulted) base += fault_->link_extra(layer, base, start);
    }
    ++(is_rmw ? stats_.rmws : stats_.remote_writes);
  }

  // RFO: invalidate every other copy, α·L each (Section III-B).  Parked
  // spinners count as copy holders even if an earlier queued write already
  // cleared their sharer bit: their wake re-poll re-caches the line before
  // this (serialized) transaction starts, so the invalidation must be paid
  // again.  This is the cascade that makes the centralized barrier
  // quadratic on the packed counter+generation line.
  Picos rfo = 0;
  std::uint64_t invalidated = 0;
  util::BitWords& holder = holder_scratch_;
  holder.copy_from_words(sharer);
  for (const WaiterBase* w : line_waiters_[li]) {
    holder.set(static_cast<std::size_t>(w->core_));
  }
  const auto invalidate = [&](std::size_t s) {
    const int si = static_cast<int>(s);
    if (si == core) return;
    rfo += machine_.rfo_ps_fast(core, si);
    ++invalidated;
    util::bit_clear(sharer, s);
  };
  if constexpr (Faulted) {
    // Degraded links also slow the invalidation round-trips.  The check is
    // hoisted out of the scan: the per-destination layer lookup is only
    // paid inside the degraded-link loop, never per set bit otherwise.
    if (fault_->degrades_links()) {
      holder.for_each_set([&](std::size_t s) {
        const int si = static_cast<int>(s);
        if (si == core) return;
        Picos inv = machine_.rfo_ps_fast(core, si);
        inv += fault_->link_extra(
            static_cast<int>(topo::Machine::entry_layer(
                machine_.comm_entry_fast(core, si))),
            inv, start);
        rfo += inv;
        ++invalidated;
        util::bit_clear(sharer, s);
      });
    } else {
      holder.for_each_set(invalidate);
    }
  } else {
    holder.for_each_set(invalidate);
  }
  stats_.invalidations += invalidated;

  // Poll pressure: an invalidating transaction on a line that many cores
  // are re-reading contends with those reads at the line's home — the
  // network-controller contention of Section IV-B that makes the
  // centralized barrier super-linear.  Each in-flight read of the line
  // adds c.
  Picos cost =
      base + rfo +
      machine_.contention_ps() *
          static_cast<Picos>(line_reads_[li].count_at(start));
  // Machine-wide network contention for the fetch and the invalidations.
  const bool is_remote_transfer = fetched_remotely || rfo > 0;
  if (is_remote_transfer)
    cost += machine_.net_contention_ps() *
            static_cast<Picos>(net_inflight_.count_at(start));
  // Straggler model: a slowed core executes the whole transaction slower,
  // including the ownership migration a plain store occupies the line for.
  // One shared factor, applied once per component.
  if constexpr (Faulted) {
    cost = fault::Plan::apply_milli(cost, straggle_milli);
    base = fault::Plan::apply_milli(base, straggle_milli);
  }

  const Picos finish = start + cost;
  if (is_remote_transfer) net_inflight_.add(finish);
  // A plain store occupies the line until ownership has migrated (base);
  // the RFO / contention tail delays observers of THIS write (wake time
  // below) but a subsequent store can begin acquiring ownership meanwhile.
  // An atomic RMW holds the line exclusively for the whole transaction —
  // that is what serializes the centralized barrier's arrival chain.
  line_busy_[li] = is_rmw ? finish : start + base;
  util::bit_set(sharer, static_cast<std::size_t>(core));
  line_owner_[li] = core;
  if constexpr (Traced)
    tracer_->count({start, finish, core, line,
                    is_rmw ? TraceEvent::Kind::kRmw
                           : TraceEvent::Kind::kWrite,
                    layer},
                   invalidated);
  wake_waiters<Traced, Faulted>(line, finish);
  return finish;
}

template <bool Traced, bool Faulted>
void MemSystem::wake_waiters(LineId line, Picos when) {
  const auto li = static_cast<std::size_t>(line);
  if (line_waiters_[li].empty()) return;
  // Reuse one scratch list so the swap keeps (and grows once) a single
  // buffer instead of reallocating per wake-up.  wake_waiters never
  // re-enters itself: read_at touches no waiter lists and on_line_write
  // only schedules deferred resumptions.
  std::vector<WaiterBase*>& pending = wake_scratch_;
  pending.clear();
  pending.swap(line_waiters_[li]);
  for (WaiterBase* w : pending) {
    // Each parked poller re-fetches the line (costed read at the write's
    // completion); on predicate failure it parks again — but it has
    // re-joined the sharer set, so the next write pays to invalidate it.
    const Picos finish =
        read_at<Traced, Faulted>(w->core_, line, when, /*is_poll=*/true);
    if (w->on_line_write(*this, line, finish))
      line_waiters_[li].push_back(w);
  }
  // The drained buffer stays in wake_scratch_ for the next wake-up; the
  // line's list took the scratch buffer's capacity in the swap above.
}

Picos MemSystem::read_at_mode(int core, LineId line, Picos issue,
                              bool is_poll) {
  switch (static_cast<PathMode>(mode_)) {
    case PathMode::kTraced:
      return read_at<true, false>(core, line, issue, is_poll);
    case PathMode::kFaulted:
      return read_at<false, true>(core, line, issue, is_poll);
    case PathMode::kTracedFaulted:
      return read_at<true, true>(core, line, issue, is_poll);
    case PathMode::kPlain:
      break;
  }
  return read_at<false, false>(core, line, issue, is_poll);
}

Picos MemSystem::write_at_mode(int core, LineId line, Picos issue,
                               bool is_rmw) {
  switch (static_cast<PathMode>(mode_)) {
    case PathMode::kTraced:
      return write_at<true, false>(core, line, issue, is_rmw);
    case PathMode::kFaulted:
      return write_at<false, true>(core, line, issue, is_rmw);
    case PathMode::kTracedFaulted:
      return write_at<true, true>(core, line, issue, is_rmw);
    case PathMode::kPlain:
      break;
  }
  return write_at<false, false>(core, line, issue, is_rmw);
}

std::vector<MemSystem::HotLine> MemSystem::hot_lines(int top_n) const {
  std::vector<HotLine> all;
  all.reserve(num_lines());
  for (std::size_t i = 0; i < num_lines(); ++i) {
    HotLine h;
    h.line = static_cast<LineId>(i);
    h.reads = line_read_count_[i];
    h.writes = line_write_count_[i];
    if (h.total() > 0) all.push_back(h);
  }
  const auto busier = [](const HotLine& a, const HotLine& b) {
    return a.total() != b.total() ? a.total() > b.total() : a.line < b.line;
  };
  if (top_n >= 0 && all.size() > static_cast<std::size_t>(top_n)) {
    // Only the reported prefix needs ordering (called once per run, but
    // over every allocated line).
    std::partial_sort(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(top_n),
                      all.end(), busier);
    all.resize(static_cast<std::size_t>(top_n));
  } else {
    std::sort(all.begin(), all.end(), busier);
  }
  return all;
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

MemSystem::OpAwaiter MemSystem::read(int core, VarId v) {
  check_core(core);
  const Var& var = vars_.at(static_cast<std::size_t>(v));
  const Picos finish = read_at_mode(core, var.line, engine_.now(), false);
  return OpAwaiter(engine_, finish, var.value);
}

MemSystem::OpAwaiter MemSystem::write(int core, VarId v, std::uint64_t value) {
  check_core(core);
  Var& var = vars_.at(static_cast<std::size_t>(v));
  var.value = value;
  write_at_mode(core, var.line, engine_.now(), false);
  // Store-buffer semantics: a plain store retires immediately for the
  // writer (epsilon); the cacheline transaction — serialization,
  // invalidations, waiter wake-ups — proceeds asynchronously and is
  // what observers pay for.
  return OpAwaiter(engine_, engine_.now() + machine_.epsilon_ps(), value);
}

MemSystem::OpAwaiter MemSystem::rmw(
    int core, VarId v, const std::function<std::uint64_t(std::uint64_t)>& f) {
  check_core(core);
  Var& var = vars_.at(static_cast<std::size_t>(v));
  const std::uint64_t old = var.value;
  var.value = f(old);
  const Picos finish = write_at_mode(core, var.line, engine_.now(), true);
  return OpAwaiter(engine_, finish, old);
}

// fetch_add/fetch_sub are the barrier algorithms' bread-and-butter RMWs;
// apply the delta directly instead of routing through a std::function.
MemSystem::OpAwaiter MemSystem::fetch_add(int core, VarId v,
                                          std::uint64_t delta) {
  check_core(core);
  Var& var = vars_.at(static_cast<std::size_t>(v));
  const std::uint64_t old = var.value;
  var.value = old + delta;
  const Picos finish = write_at_mode(core, var.line, engine_.now(), true);
  return OpAwaiter(engine_, finish, old);
}

MemSystem::OpAwaiter MemSystem::fetch_sub(int core, VarId v,
                                          std::uint64_t delta) {
  check_core(core);
  Var& var = vars_.at(static_cast<std::size_t>(v));
  const std::uint64_t old = var.value;
  var.value = old - delta;
  const Picos finish = write_at_mode(core, var.line, engine_.now(), true);
  return OpAwaiter(engine_, finish, old);
}

MemSystem::SpinAwaiter MemSystem::spin_until(int core, VarId v,
                                             SpinPred pred) {
  check_core(core);
  return SpinAwaiter(*this, core, v, pred);
}

MemSystem::SpinAllAwaiter MemSystem::spin_until_all(
    int core, std::span<const VarId> vars, SpinPred pred) {
  check_core(core);
  return SpinAllAwaiter(*this, core, vars, pred);
}

void MemSystem::SpinAwaiter::await_suspend(std::coroutine_handle<> h) {
  handle_ = h;
  const Var& var = mem_.vars_.at(static_cast<std::size_t>(var_));
  // Initial poll: a normal costed read.
  const Picos finish =
      mem_.read_at_mode(core_, var.line, mem_.engine_.now(), false);
  const std::uint64_t v = var.value;
  if (pred_(v)) {
    result_ = v;
    mem_.engine_.schedule(finish, handle_);
    return;
  }
  // Park: the next write to the line re-polls us.
  mem_.line_waiters_[static_cast<std::size_t>(var.line)].push_back(this);
}

bool MemSystem::SpinAwaiter::on_line_write(MemSystem& mem, LineId /*line*/,
                                           Picos read_finish) {
  const std::uint64_t v = mem.vars_[static_cast<std::size_t>(var_)].value;
  if (pred_(v)) {
    result_ = v;
    mem.engine_.schedule(read_finish, handle_);
    return false;
  }
  return true;
}

MemSystem::SpinAllAwaiter::SpinAllAwaiter(MemSystem& mem, int core,
                                          std::span<const VarId> vars,
                                          SpinPred pred)
    : WaiterBase(core),
      mem_(mem),
      pred_(pred),
      pending_(mem.spin_all_pending_[static_cast<std::size_t>(core)]) {
  pending_.clear();
  for (const VarId v : vars) {
    const LineId line = mem_.line_of(v);
    // Insert after existing entries of the same line: ascending line
    // order, insertion order within a line.
    const auto it = std::upper_bound(
        pending_.begin(), pending_.end(), line,
        [](LineId l, const PendingVar& p) { return l < p.line; });
    pending_.insert(it, PendingVar{line, v});
    ++remaining_;
  }
}

bool MemSystem::SpinAllAwaiter::settle_line(LineId line) {
  const auto lo = std::lower_bound(
      pending_.begin(), pending_.end(), line,
      [](const PendingVar& p, LineId l) { return p.line < l; });
  auto hi = lo;
  while (hi != pending_.end() && hi->line == line) ++hi;
  if (lo == hi) return false;
  const auto keep_end = std::remove_if(lo, hi, [&](const PendingVar& p) {
    if (!pred_(mem_.peek(p.var))) return false;
    --remaining_;
    return true;
  });
  const bool stay = keep_end != lo;
  pending_.erase(keep_end, hi);
  return stay;
}

void MemSystem::SpinAllAwaiter::await_suspend(std::coroutine_handle<> h) {
  handle_ = h;
  // Initial polls: one read per watched line, all issued now (ascending
  // line order, as pending_ is sorted); misses overlap subject to the
  // per-core MLP bound.
  const Picos now = mem_.engine_.now();
  Picos max_finish = now;
  LineId prev = -1;
  for (const PendingVar& p : pending_) {
    if (p.line == prev) continue;
    prev = p.line;
    max_finish =
        std::max(max_finish, mem_.read_at_mode(core_, p.line, now, false));
  }
  latest_read_ = max_finish;
  // Settle each line against the just-read values; park on lines that
  // still have pending vars.  settle_line erases satisfied entries in
  // place, so on a false return the element at i already belongs to the
  // next line.
  std::size_t i = 0;
  while (i < pending_.size()) {
    const LineId line = pending_[i].line;
    if (settle_line(line)) {
      mem_.line_waiters_[static_cast<std::size_t>(line)].push_back(this);
      while (i < pending_.size() && pending_[i].line == line) ++i;
    }
  }
  if (remaining_ == 0) mem_.engine_.schedule(latest_read_, handle_);
}

bool MemSystem::SpinAllAwaiter::on_line_write(MemSystem& mem, LineId line,
                                              Picos read_finish) {
  latest_read_ = std::max(latest_read_, read_finish);
  const bool stay = settle_line(line);
  if (remaining_ == 0) mem.engine_.schedule(latest_read_, handle_);
  return stay;
}

}  // namespace armbar::sim

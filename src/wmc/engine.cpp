// wmc exploration engine: fibers, shadow memory, DFS with sleep sets.
//
// One OS thread runs everything.  Model threads are ucontext fibers that
// yield to the scheduler at every visible (atomic) operation; between
// visible operations a fiber runs uninterrupted, which is sound because
// model code communicates exclusively through wmc::Atomic.  Stateless
// model checking: each execution replays a recorded prefix of branch
// decisions from scratch, then extends it; backtracking advances the
// deepest branch node with an unexplored alternative.

#include "armbar/wmc/engine.hpp"

#include <ucontext.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define ARMBAR_WMC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARMBAR_WMC_ASAN 1
#endif
#endif

#if defined(ARMBAR_WMC_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

namespace armbar::wmc {
namespace {

/// Thrown inside a fiber to unwind it when the scheduler ends an
/// execution early (deadlock elsewhere, sleep-set prune, violation cap).
struct AbortExecution {};

constexpr int kMaxThreads = Env::kMaxThreads;

/// Vector clock over model threads.  Component t counts thread t's
/// visible writes; joins happen on acquire loads of release stores.
struct VClock {
  std::array<std::uint32_t, kMaxThreads> c{};

  void join(const VClock& o) noexcept {
    for (int i = 0; i < kMaxThreads; ++i)
      if (o.c[static_cast<std::size_t>(i)] > c[static_cast<std::size_t>(i)])
        c[static_cast<std::size_t>(i)] = o.c[static_cast<std::size_t>(i)];
  }
  bool leq(const VClock& o) const noexcept {
    for (int i = 0; i < kMaxThreads; ++i)
      if (c[static_cast<std::size_t>(i)] > o.c[static_cast<std::size_t>(i)])
        return false;
    return true;
  }
};

inline bool is_acquire(std::memory_order o) noexcept {
  return o == std::memory_order_acquire || o == std::memory_order_acq_rel ||
         o == std::memory_order_seq_cst || o == std::memory_order_consume;
}
inline bool is_release(std::memory_order o) noexcept {
  return o == std::memory_order_release || o == std::memory_order_acq_rel ||
         o == std::memory_order_seq_cst;
}

/// One entry of a location's modification order.
struct StoreRec {
  std::uint64_t value = 0;
  int writer = -1;       ///< model thread id; -1 for constructor writes
  VClock wclock;         ///< writer's clock at the store (hb test)
  VClock msg;            ///< release clock readers acquire
  bool has_msg = false;  ///< msg is meaningful (release sequence alive)
};

struct LocationRec {
  const char* name = nullptr;  ///< nullptr: rendered as loc<index>
  std::vector<StoreRec> history;  ///< modification order, [0] = init
};

enum class OpKind : std::uint8_t {
  kNone,
  kLoad,
  kStore,
  kRmw,
  kAwait,
  kFinished
};

struct PendingOp {
  OpKind kind = OpKind::kNone;
  int loc = -1;
  std::memory_order order = std::memory_order_relaxed;
  std::uint64_t operand = 0;
  Env::Rmw rmw = Env::Rmw::kAdd;
  std::function<bool(std::uint64_t)> pred;
  const char* site = "";
};

/// A scheduling decision: run thread `tid`; for loads/awaits, make it
/// read modification-order index `read`.  `loc`/`writes` fingerprint the
/// operation for the sleep-set independence test.
struct Choice {
  int tid = -1;
  int read = -1;
  int loc = -1;
  bool writes = false;

  bool same(const Choice& o) const noexcept {
    return tid == o.tid && read == o.read;
  }
};

inline bool independent(const Choice& a, const Choice& b) noexcept {
  if (a.tid == b.tid) return false;  // program order
  if (a.loc < 0 || b.loc < 0) return true;
  return a.loc != b.loc || (!a.writes && !b.writes);
}

struct BranchNode {
  std::vector<Choice> options;  ///< sleep-filtered options at this point
  std::size_t next = 0;         ///< option currently being explored
};

struct TraceStep {
  int tid;
  OpKind kind;
  int loc;
  const char* site;
  std::uint64_t value;
  int read;
};

struct Fiber {
  ucontext_t uc{};
  std::vector<char> stack;
  bool live = false;
#if defined(ARMBAR_WMC_ASAN)
  void* fake_stack = nullptr;
#endif
};

struct ThreadState {
  VClock clock;
  std::vector<std::uint32_t> last_seen;  ///< per-location floor index
  PendingOp pending;
  int granted_read = -1;
};

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

class Engine {
 public:
  Engine(int num_threads, const Program& make, const Options& opt)
      : num_threads_(num_threads), make_(make), opt_(opt), env_(*this) {
    if (num_threads < 1 || num_threads > kMaxThreads)
      throw std::invalid_argument("wmc: num_threads must be in [1, 4]");
    for (auto& f : fibers_) f.stack.resize(kStackBytes);
  }

  Result run();

  // -- Env entry points (called from fibers or from the factory) ----------
  int register_location(const char* name);
  std::uint64_t do_load(int loc, std::memory_order order, const char* site);
  void do_store(int loc, std::uint64_t value, std::memory_order order,
                const char* site);
  std::uint64_t do_rmw(int loc, Env::Rmw op, std::uint64_t operand,
                       std::memory_order order, const char* site);
  std::uint64_t do_await(int loc, std::memory_order order,
                         std::function<bool(std::uint64_t)> pred,
                         const char* site);
  std::memory_order order_at(const Site& site);
  void fail(std::string kind, std::string detail);
  int current_thread() const noexcept { return current_tid_; }
  Env& env() noexcept { return env_; }

  void fiber_main(int tid);

 private:
  static constexpr std::size_t kStackBytes = 256 * 1024;

  enum class RunEnd { kFinished, kDeadlock, kSleepPruned, kAborted };

  // Execution lifecycle -----------------------------------------------------
  void reset_execution();
  void start_fibers();
  RunEnd run_execution(bool random_mode, std::mt19937_64* rng);
  void abort_live_fibers();

  // Scheduling --------------------------------------------------------------
  void enumerate(std::vector<Choice>& out);
  void candidate_range(int tid, int loc, std::uint32_t* lo,
                       std::uint32_t* hi) const;
  void apply(const Choice& choice);
  std::uint64_t apply_pending(int tid);
  std::uint64_t visible_op(PendingOp op);

  // Fiber plumbing ----------------------------------------------------------
  void resume_fiber(int tid);
  void yield_to_main(int tid);
  void final_yield(int tid);

  // Reporting ---------------------------------------------------------------
  void record_violation(std::string kind, std::string detail);
  std::vector<std::string> render_trace() const;

  int num_threads_;
  const Program& make_;
  Options opt_;
  Env env_;

  // Per-execution state
  std::vector<LocationRec> locs_;
  std::array<ThreadState, kMaxThreads> threads_{};
  std::array<Fiber, kMaxThreads> fibers_{};
  ThreadFn body_;
  std::vector<TraceStep> trace_;
  bool abort_requested_ = false;
  int current_tid_ = -1;

  // Exploration state
  std::vector<const char*> sites_;  ///< Site names consulted so far
  std::vector<BranchNode> stack_;
  Result result_;
  bool stop_ = false;

  // Main-context bookkeeping
  ucontext_t main_uc_{};
#if defined(ARMBAR_WMC_ASAN)
  const void* main_stack_bottom_ = nullptr;
  std::size_t main_stack_size_ = 0;
#endif
};

namespace {
thread_local Engine* tl_engine = nullptr;
thread_local int tl_entry_tid = 0;
thread_local Env* tl_env = nullptr;  ///< Env of the running exploration

extern "C" void armbar_wmc_trampoline() {
  tl_engine->fiber_main(tl_entry_tid);
}
}  // namespace

// ---------------------------------------------------------------------------
// Env forwarding
// ---------------------------------------------------------------------------

int Env::register_location(const char* name) {
  return engine_.register_location(name);
}
std::uint64_t Env::do_load(int loc, std::memory_order order,
                           const char* site) {
  return engine_.do_load(loc, order, site);
}
void Env::do_store(int loc, std::uint64_t value, std::memory_order order,
                   const char* site) {
  engine_.do_store(loc, value, order, site);
}
std::uint64_t Env::do_rmw(int loc, Rmw op, std::uint64_t operand,
                          std::memory_order order, const char* site) {
  return engine_.do_rmw(loc, op, operand, order, site);
}
std::uint64_t Env::do_await(int loc, std::memory_order order,
                            std::function<bool(std::uint64_t)> pred,
                            const char* site) {
  return engine_.do_await(loc, order, std::move(pred), site);
}
Env& Env::current() {
  if (tl_env == nullptr)
    throw std::logic_error("wmc: Atomic used outside an exploration");
  return *tl_env;
}
std::memory_order Env::order_at(const Site& site) {
  return engine_.order_at(site);
}
void Env::fail(std::string kind, std::string detail) {
  engine_.fail(std::move(kind), std::move(detail));
}
int Env::current_thread() const noexcept { return engine_.current_thread(); }

// ---------------------------------------------------------------------------
// Shadow memory
// ---------------------------------------------------------------------------

int Engine::register_location(const char* name) {
  const int id = static_cast<int>(locs_.size());
  LocationRec loc;
  loc.name = name;
  loc.history.emplace_back();  // init store: value 0, empty clocks
  locs_.push_back(std::move(loc));
  for (auto& t : threads_) t.last_seen.push_back(0);
  return id;
}

/// Admissible read range for thread `tid` at `loc`: [lo, hi] in
/// modification order.  lo is the thread's coherence floor: the latest
/// index it has already observed, or the latest store that happens-before
/// it — reading anything older would violate coherence.
void Engine::candidate_range(int tid, int loc, std::uint32_t* lo,
                             std::uint32_t* hi) const {
  const auto& h = locs_[static_cast<std::size_t>(loc)].history;
  const auto& ts = threads_[static_cast<std::size_t>(tid)];
  std::uint32_t floor = ts.last_seen[static_cast<std::size_t>(loc)];
  for (std::uint32_t j = static_cast<std::uint32_t>(h.size()); j-- > floor + 1;) {
    if (h[j].wclock.leq(ts.clock)) {
      floor = j;
      break;
    }
  }
  *lo = floor;
  *hi = static_cast<std::uint32_t>(h.size()) - 1;
}

std::memory_order Engine::order_at(const Site& site) {
  if (std::find(sites_.begin(), sites_.end(), site.name) == sites_.end())
    sites_.push_back(site.name);
  return opt_.mutate == site.name ? std::memory_order_relaxed : site.order;
}

// ---------------------------------------------------------------------------
// Visible operations (fiber side)
// ---------------------------------------------------------------------------

std::uint64_t Engine::visible_op(PendingOp op) {
  if (current_tid_ < 0) {
    // Constructor context (program factory on the main stack): the model
    // is being initialized before any fiber starts.  Initialization
    // happens-before everything, so fold the effect into the init store.
    auto& h = locs_[static_cast<std::size_t>(op.loc)].history;
    assert(h.size() == 1 && "wmc: constructor access after threads started");
    StoreRec& init = h[0];
    switch (op.kind) {
      case OpKind::kLoad:
        return init.value;
      case OpKind::kStore:
        init.value = op.operand;
        return 0;
      case OpKind::kRmw: {
        const std::uint64_t old = init.value;
        init.value =
            op.rmw == Env::Rmw::kAdd ? old + op.operand : old - op.operand;
        return old;
      }
      default:
        throw std::logic_error("wmc: await in constructor context");
    }
  }
  const int tid = current_tid_;
  threads_[static_cast<std::size_t>(tid)].pending = std::move(op);
  yield_to_main(tid);
  if (abort_requested_) throw AbortExecution{};
  return apply_pending(tid);
}

std::uint64_t Engine::do_load(int loc, std::memory_order order,
                              const char* site) {
  PendingOp op;
  op.kind = OpKind::kLoad;
  op.loc = loc;
  op.order = order;
  op.site = site;
  return visible_op(std::move(op));
}

void Engine::do_store(int loc, std::uint64_t value, std::memory_order order,
                      const char* site) {
  PendingOp op;
  op.kind = OpKind::kStore;
  op.loc = loc;
  op.order = order;
  op.operand = value;
  op.site = site;
  visible_op(std::move(op));
}

std::uint64_t Engine::do_rmw(int loc, Env::Rmw rmw, std::uint64_t operand,
                             std::memory_order order, const char* site) {
  PendingOp op;
  op.kind = OpKind::kRmw;
  op.loc = loc;
  op.order = order;
  op.operand = operand;
  op.rmw = rmw;
  op.site = site;
  return visible_op(std::move(op));
}

std::uint64_t Engine::do_await(int loc, std::memory_order order,
                               std::function<bool(std::uint64_t)> pred,
                               const char* site) {
  PendingOp op;
  op.kind = OpKind::kAwait;
  op.loc = loc;
  op.order = order;
  op.pred = std::move(pred);
  op.site = site;
  return visible_op(std::move(op));
}

/// Perform the granted operation.  Runs on the fiber immediately after
/// the scheduler's grant, so enumeration stays side-effect free.
std::uint64_t Engine::apply_pending(int tid) {
  ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
  PendingOp& op = ts.pending;
  auto& h = locs_[static_cast<std::size_t>(op.loc)].history;
  std::uint64_t out = 0;

  switch (op.kind) {
    case OpKind::kLoad:
    case OpKind::kAwait: {
      const auto idx = static_cast<std::uint32_t>(ts.granted_read);
      const StoreRec& s = h[idx];
      if (is_acquire(op.order) && s.has_msg) ts.clock.join(s.msg);
      if (idx > ts.last_seen[static_cast<std::size_t>(op.loc)])
        ts.last_seen[static_cast<std::size_t>(op.loc)] = idx;
      out = s.value;
      break;
    }
    case OpKind::kStore:
    case OpKind::kRmw: {
      const StoreRec& prev = h.back();
      std::uint64_t value = op.operand;
      if (op.kind == OpKind::kRmw) {
        out = prev.value;
        value = op.rmw == Env::Rmw::kAdd ? prev.value + op.operand
                                         : prev.value - op.operand;
        if (is_acquire(op.order) && prev.has_msg) ts.clock.join(prev.msg);
      }
      ts.clock.c[static_cast<std::size_t>(tid)]++;  // new write event
      StoreRec rec;
      rec.value = value;
      rec.writer = tid;
      rec.wclock = ts.clock;
      if (is_release(op.order)) {
        rec.msg = ts.clock;
        rec.has_msg = true;
      }
      if (op.kind == OpKind::kRmw && prev.has_msg) {
        // C++11 29.3: an RMW continues the release sequence of the store
        // it displaces, whatever its own order.
        rec.msg.join(prev.msg);
        rec.has_msg = true;
      }
      h.push_back(std::move(rec));
      ts.last_seen[static_cast<std::size_t>(op.loc)] =
          static_cast<std::uint32_t>(h.size()) - 1;
      if (h.size() > result_.deepest_history)
        result_.deepest_history = h.size();
      break;
    }
    case OpKind::kNone:
    case OpKind::kFinished:
      assert(false);
      break;
  }

  if (trace_.size() < opt_.max_trace_steps) {
    trace_.push_back(
        TraceStep{tid, op.kind, op.loc, op.site, out, ts.granted_read});
    if (op.kind == OpKind::kStore || op.kind == OpKind::kRmw)
      trace_.back().value = h.back().value;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void Engine::enumerate(std::vector<Choice>& out) {
  out.clear();
  for (int t = 0; t < num_threads_; ++t) {
    const PendingOp& op = threads_[static_cast<std::size_t>(t)].pending;
    switch (op.kind) {
      case OpKind::kStore:
      case OpKind::kRmw:
        out.push_back(Choice{t, -1, op.loc, true});
        break;
      case OpKind::kLoad:
      case OpKind::kAwait: {
        std::uint32_t lo = 0, hi = 0;
        candidate_range(t, op.loc, &lo, &hi);
        const auto& h = locs_[static_cast<std::size_t>(op.loc)].history;
        for (std::uint32_t i = lo; i <= hi; ++i) {
          if (op.kind == OpKind::kAwait && !op.pred(h[i].value)) continue;
          out.push_back(Choice{t, static_cast<int>(i), op.loc, false});
        }
        break;
      }
      case OpKind::kNone:
      case OpKind::kFinished:
        break;
    }
  }
}

void Engine::apply(const Choice& choice) {
  ThreadState& ts = threads_[static_cast<std::size_t>(choice.tid)];
  ts.granted_read = choice.read;
  resume_fiber(choice.tid);
}

// ---------------------------------------------------------------------------
// Execution lifecycle
// ---------------------------------------------------------------------------

void Engine::reset_execution() {
  locs_.clear();
  for (auto& t : threads_) {
    t.clock = VClock{};
    t.last_seen.clear();
    t.pending = PendingOp{};
    t.granted_read = -1;
  }
  trace_.clear();
  abort_requested_ = false;
  current_tid_ = -1;
  body_ = nullptr;
}

void Engine::fiber_main(int tid) {
#if defined(ARMBAR_WMC_ASAN)
  // First entry into this fiber: complete the switch and learn the main
  // context's stack bounds for the way back.
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &bottom, &size);
  main_stack_bottom_ = bottom;
  main_stack_size_ = size;
#endif
  try {
    body_(tid);
  } catch (const AbortExecution&) {
    // Scheduler ended the execution early; unwind silently.
  } catch (const std::exception& e) {
    record_violation("model-exception", e.what());
  } catch (...) {
    record_violation("model-exception", "unknown exception");
  }
  fibers_[static_cast<std::size_t>(tid)].live = false;
  threads_[static_cast<std::size_t>(tid)].pending.kind = OpKind::kFinished;
  final_yield(tid);
  assert(false && "wmc: resumed a finished fiber");
}

void Engine::start_fibers() {
  for (int t = 0; t < num_threads_; ++t) {
    Fiber& f = fibers_[static_cast<std::size_t>(t)];
    getcontext(&f.uc);
    f.uc.uc_stack.ss_sp = f.stack.data();
    f.uc.uc_stack.ss_size = f.stack.size();
    f.uc.uc_link = &main_uc_;
    tl_engine = this;
    tl_entry_tid = t;
    makecontext(&f.uc, armbar_wmc_trampoline, 0);
    f.live = true;
    // Run the fiber to its first visible operation (or completion); the
    // prefix is thread-local by construction, so no scheduling decision
    // is lost by running it eagerly.
    resume_fiber(t);
  }
}

void Engine::abort_live_fibers() {
  abort_requested_ = true;
  for (int t = 0; t < num_threads_; ++t) {
    if (fibers_[static_cast<std::size_t>(t)].live) resume_fiber(t);
  }
  abort_requested_ = false;
}

Engine::RunEnd Engine::run_execution(bool random_mode, std::mt19937_64* rng) {
  reset_execution();
  body_ = make_(env_);
  if (!body_) throw std::logic_error("wmc: program factory returned no body");
  start_fibers();

  std::vector<Choice> options;
  std::vector<Choice> sleep;
  std::size_t branch_i = 0;
  RunEnd end = RunEnd::kFinished;

  for (;;) {
    if (result_.violations.size() >= opt_.max_violations) {
      stop_ = true;
      end = RunEnd::kAborted;
      break;
    }
    bool any_alive = false;
    for (int t = 0; t < num_threads_; ++t)
      any_alive = any_alive || fibers_[static_cast<std::size_t>(t)].live;
    if (!any_alive) break;

    enumerate(options);
    if (options.empty()) {
      record_violation("deadlock",
                       "all live threads blocked (no admissible step)");
      end = RunEnd::kDeadlock;
      break;
    }

    // Sleep-set filter: drop choices already explored at an ancestor and
    // still independent of everything executed since.
    std::vector<Choice> filtered;
    if (opt_.no_sleep_sets || random_mode) {
      filtered = options;
    } else {
      for (const Choice& c : options) {
        bool asleep = false;
        for (const Choice& s : sleep) asleep = asleep || s.same(c);
        if (!asleep) filtered.push_back(c);
      }
      if (filtered.empty()) {
        // Every remaining option is covered by an earlier subtree.
        end = RunEnd::kSleepPruned;
        result_.sleep_pruned++;
        break;
      }
    }

    Choice choice;
    std::size_t explored_here = 0;  // options[0..explored_here) join sleep
    const BranchNode* node = nullptr;
    if (random_mode) {
      choice = filtered[(*rng)() % filtered.size()];
    } else if (filtered.size() == 1) {
      choice = filtered[0];
    } else if (branch_i < stack_.size()) {
      node = &stack_[branch_i];
      choice = node->options[node->next];
      explored_here = node->next;
      ++branch_i;
    } else {
      stack_.push_back(BranchNode{filtered, 0});
      node = &stack_.back();
      choice = filtered[0];
      ++branch_i;
      result_.branch_points++;
    }

    if (!opt_.no_sleep_sets && !random_mode) {
      std::vector<Choice> next_sleep;
      for (const Choice& s : sleep)
        if (independent(s, choice)) next_sleep.push_back(s);
      if (node != nullptr) {
        for (std::size_t i = 0; i < explored_here; ++i)
          if (independent(node->options[i], choice))
            next_sleep.push_back(node->options[i]);
      }
      sleep = std::move(next_sleep);
    }

    apply(choice);
  }

  abort_live_fibers();  // no-op when every fiber already finished
  return end;
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

Result Engine::run() {
  result_ = Result{};
  sites_.clear();
  stack_.clear();
  stop_ = false;

  // DFS phase.
  bool exhausted = false;
  while (!stop_) {
    run_execution(/*random_mode=*/false, nullptr);
    result_.executions++;
    if (stop_) break;
    // Backtrack to the deepest node with an unexplored alternative.
    while (!stack_.empty()) {
      BranchNode& n = stack_.back();
      if (n.next + 1 < n.options.size()) {
        ++n.next;
        break;
      }
      stack_.pop_back();
    }
    if (stack_.empty()) {
      exhausted = true;
      break;
    }
    if (result_.executions >= opt_.max_executions) break;
  }
  result_.exhaustive = exhausted;

  // Random-walk fallback above the DFS budget.
  if (!exhausted && !stop_) {
    std::mt19937_64 rng(opt_.seed);
    for (std::uint64_t i = 0; i < opt_.random_executions && !stop_; ++i) {
      run_execution(/*random_mode=*/true, &rng);
      result_.executions++;
    }
  }
  result_.sites.assign(sites_.begin(), sites_.end());
  std::sort(result_.sites.begin(), result_.sites.end());
  result_.sites.erase(std::unique(result_.sites.begin(), result_.sites.end()),
                      result_.sites.end());
  return result_;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void Engine::fail(std::string kind, std::string detail) {
  record_violation(std::move(kind), std::move(detail));
  if (result_.violations.size() >= opt_.max_violations) throw AbortExecution{};
}

void Engine::record_violation(std::string kind, std::string detail) {
  if (result_.violations.size() >= opt_.max_violations) return;
  Violation v;
  v.kind = std::move(kind);
  v.detail = std::move(detail);
  v.trace = render_trace();
  result_.violations.push_back(std::move(v));
}

std::vector<std::string> Engine::render_trace() const {
  std::vector<std::string> out;
  out.reserve(trace_.size());
  for (const TraceStep& s : trace_) {
    std::ostringstream os;
    const char* name = locs_[static_cast<std::size_t>(s.loc)].name;
    const std::string loc_name =
        name != nullptr ? name : "loc" + std::to_string(s.loc);
    os << "t" << s.tid << ": ";
    switch (s.kind) {
      case OpKind::kLoad:
        os << "load(" << loc_name << ")[mo#" << s.read << "] -> " << s.value;
        break;
      case OpKind::kAwait:
        os << "await(" << loc_name << ")[mo#" << s.read << "] -> "
           << s.value;
        break;
      case OpKind::kStore:
        os << "store(" << loc_name << ") := " << s.value;
        break;
      case OpKind::kRmw:
        os << "rmw(" << loc_name << ") -> " << s.value;
        break;
      default:
        os << "?";
        break;
    }
    if (s.site != nullptr && s.site[0] != '\0') os << " @" << s.site;
    out.push_back(os.str());
  }
  if (trace_.size() >= opt_.max_trace_steps) out.push_back("... (truncated)");
  return out;
}

// ---------------------------------------------------------------------------
// Fiber switching
// ---------------------------------------------------------------------------

void Engine::resume_fiber(int tid) {
  Fiber& f = fibers_[static_cast<std::size_t>(tid)];
  const int saved = current_tid_;
  current_tid_ = tid;
#if defined(ARMBAR_WMC_ASAN)
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, f.stack.data(), f.stack.size());
  swapcontext(&main_uc_, &f.uc);
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#else
  swapcontext(&main_uc_, &f.uc);
#endif
  current_tid_ = saved;
}

void Engine::yield_to_main(int tid) {
  Fiber& f = fibers_[static_cast<std::size_t>(tid)];
#if defined(ARMBAR_WMC_ASAN)
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, main_stack_bottom_, main_stack_size_);
  swapcontext(&f.uc, &main_uc_);
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#else
  swapcontext(&f.uc, &main_uc_);
#endif
}

void Engine::final_yield(int tid) {
  Fiber& f = fibers_[static_cast<std::size_t>(tid)];
#if defined(ARMBAR_WMC_ASAN)
  // nullptr fake-stack slot: tell ASan this fiber's fake frames die here.
  __sanitizer_start_switch_fiber(nullptr, main_stack_bottom_,
                                 main_stack_size_);
#endif
  swapcontext(&f.uc, &main_uc_);
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

Result explore(int num_threads, const Program& make, const Options& options) {
  Engine engine(num_threads, make, options);
  Env* const outer = std::exchange(tl_env, &engine.env());
  try {
    Result r = engine.run();
    tl_env = outer;
    return r;
  } catch (...) {
    tl_env = outer;
    throw;
  }
}

}  // namespace armbar::wmc

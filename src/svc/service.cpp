#include "armbar/svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "../obs/json_util.hpp"
#include "armbar/fault/plan.hpp"
#include "armbar/obs/aggregate.hpp"
#include "armbar/obs/metrics.hpp"
#include "armbar/sim/error.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/svc/spsc_ring.hpp"
#include "armbar/topo/placement.hpp"
#include "armbar/topo/platforms.hpp"
#include "armbar/util/backoff.hpp"

namespace armbar::svc {

namespace {

/// Polls of its own drain intake makes before it sleeps on a full
/// reorder window or an unfinished batch.
constexpr int kIntakeSpins = 64;

// -- rendering (shared by the daemon and one-shot paths; the
// byte-identity guarantee is exactly "both paths call these") ------------

/// Result-line tail (everything after the per-occurrence job index).
std::string render_result_tail(const JobSpec& spec,
                               const simbar::SimResult& result) {
  namespace d = obs::detail;
  std::string out = ", \"machine\": \"";
  d::append_escaped(out, spec.machine);
  out += "\", \"barrier\": \"";
  d::append_escaped(out, result.barrier_name);
  out += "\", \"threads\": ";
  d::append_int(out, spec.threads);
  out += ", \"iterations\": ";
  d::append_int(out, spec.iterations);
  out += ", \"mean_overhead_ns\": ";
  d::append_num(out, result.mean_overhead_ns);
  out += ", \"events\": ";
  d::append_int(out, result.events_processed);
  out += '}';
  return out;
}

std::string render_error_tail(const std::string& kind,
                              const std::string& message,
                              const std::string& diagnostics) {
  namespace d = obs::detail;
  std::string out = ", \"error\": {\"kind\": \"";
  d::append_escaped(out, kind);
  out += "\", \"message\": \"";
  d::append_escaped(out, message);
  out += "\", \"diagnostics\": \"";
  d::append_escaped(out, diagnostics);
  out += "\"}}";
  return out;
}

std::string oversized_tail(std::size_t max_bytes) {
  return render_error_tail("parse-error",
                           "line exceeds max_line_bytes (" +
                               std::to_string(max_bytes) + " bytes)",
                           "");
}

/// Write one result line with a single write, rendered into the
/// caller's reused @p buf.
void emit_line(std::ostream& out, std::string& buf, std::uint64_t seq,
               const std::string& tail) {
  buf.assign("{\"job\": ");
  obs::detail::append_int(buf, seq);
  buf += tail;
  buf += '\n';
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Run @p fn; on failure, @p out becomes an error entry classified by
/// simbar::classify_current_exception, the taxonomy SweepDriver's
/// isolated mode uses, so the daemon and the driver-based one-shot path
/// classify identically.
template <typename Fn>
bool classify_into(CachedResult& out, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (...) {
    const simbar::Failure f = simbar::classify_current_exception();
    out.failed = true;
    out.transient = f.transient;
    out.deadline = f.kind == sim::DeadlockError::kind_name(
                                 sim::DeadlockError::Kind::kWallDeadline);
    out.tail = render_error_tail(f.kind, f.message, f.diagnostics);
  }
  return false;
}

// -- job preparation -------------------------------------------------------

simbar::SimRunConfig make_cfg(const JobSpec& spec,
                              const topo::Machine& machine) {
  simbar::SimRunConfig cfg;
  cfg.threads = spec.threads;
  cfg.iterations = spec.iterations;
  cfg.warmup = spec.effective_warmup();
  if (spec.placement == "scatter")
    cfg.core_of_thread = topo::scatter_placement(machine, spec.threads);
  else if (spec.placement == "random")
    cfg.core_of_thread = topo::random_placement(machine, spec.threads);
  else if (spec.placement != "compact")
    throw std::invalid_argument("unknown placement " + spec.placement);
  return cfg;
}

simbar::SimBarrierFactory make_factory(const JobSpec& spec,
                                       const topo::Machine& machine) {
  return simbar::sim_factory(algo_from_string(spec.algo),
                             {.cluster_size = machine.cluster_size()});
}

/// Machine pool: every named topology (and its fused latency/layer
/// tables, the expensive part of engine setup) is constructed once per
/// service and served by stable const reference for the rest of the
/// process.  Only a cache miss looks a machine up, so the mutex is
/// touched once per simulation, which costs far more than the lock.
class MachineRegistry {
 public:
  const topo::Machine& get(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = machines_.find(name);
    if (it != machines_.end()) return *it->second;
    auto m = std::make_unique<topo::Machine>(topo::machine_by_name(name));
    const topo::Machine& ref = *m;
    machines_.emplace(name, std::move(m));
    return ref;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<const topo::Machine>>
      machines_;
};

/// Compute one cell end to end (resolve, simulate, render the result line
/// and the summary row).  Never throws: failures become error entries via
/// classify_into.  A nonzero @p deadline_ms arms the engine's wall-clock
/// watchdog for this run.
std::shared_ptr<CachedResult> compute_cell(const JobSpec& spec,
                                           MachineRegistry& registry,
                                           double deadline_ms) {
  auto entry = std::make_shared<CachedResult>();
  classify_into(*entry, [&] {
    const topo::Machine& machine = registry.get(spec.machine);
    const simbar::SimRunConfig base_cfg = make_cfg(spec, machine);
    const simbar::SimBarrierFactory factory = make_factory(spec, machine);
    const fault::Plan plan =
        spec.fault.any() ? fault::Plan(spec.fault, machine.num_cores(),
                                       machine.num_layers())
                         : fault::Plan();
    simbar::SimRunConfig cfg = base_cfg;
    if (plan.active()) cfg.fault = &plan;
    cfg.wall_deadline_ms = deadline_ms;
    sim::Tracer tracer(0);  // exact counters, no event log — as the
                            // driver's metrics mode defaults
    const simbar::SimResult result =
        simbar::measure_barrier(machine, factory, cfg, &tracer);
    entry->report = obs::make_metrics(machine, cfg, result, tracer);
    entry->tail = render_result_tail(spec, result);
    obs::append_row_json(entry->row, obs::summary_row(entry->report));
    // Entries live as long as the cache: keep them at their exact size.
    entry->tail.shrink_to_fit();
    entry->row.shrink_to_fit();
  });
  return entry;
}

/// Bounded line reader.  Reads up to the next '\n' or EOF; characters
/// beyond @p max_bytes are swallowed (the stream stays line-synced) and
/// the line is reported kOversized with only the prefix kept — enough to
/// tell a comment from a job.  EOF with no characters read is kEof; EOF
/// mid-line yields the partial line exactly once, like std::getline.
/// A stream error ends the input like EOF.
enum class LineStatus { kEof, kLine, kOversized };

/// Characters one getline call may store.  A job line is a few hundred
/// bytes; a longer one takes more calls, and never more than max_bytes of
/// memory.
constexpr std::size_t kLineChunk = 256;

/// Copies the line out of the stream buffer's get area in bulk, with the
/// length from gcount(), so an embedded NUL stays in the line.
LineStatus read_job_line(std::istream& in, std::string& line,
                         std::size_t max_bytes) {
  line.clear();
  if (!in.good()) return LineStatus::kEof;
  // getline's sentry would flush in.tie() on every line.  std::cin is
  // tied to std::cout, so `sweep_cli --daemon` would write ~4x as often;
  // serve() flushes when a flush is due, so the tie is lifted while
  // reading.
  struct Untie {
    std::istream& in;
    std::ostream* tie = in.tie(nullptr);
    ~Untie() { in.tie(tie); }
  } untie{in};
  for (;;) {
    const std::size_t have = line.size();
    const std::size_t room = std::min(kLineChunk, max_bytes - have);
    // Stores up to `room` characters and a NUL and extracts the '\n'
    // after them; with `room` stored and more to come, it sets failbit.
    line.resize(have + room + 1);
    in.getline(line.data() + have, static_cast<std::streamsize>(room + 1));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (in.eof() || in.bad()) {
      line.resize(have + got);
      in.clear(in.rdstate() & ~std::ios::failbit);
      return line.empty() ? LineStatus::kEof : LineStatus::kLine;
    }
    if (!in.fail()) {  // the '\n' was read, and counted in gcount
      line.resize(have + got - 1);
      return LineStatus::kLine;
    }
    line.resize(have + got);
    in.clear();
    if (line.size() == max_bytes) {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      return LineStatus::kOversized;
    }
  }
}

/// Skip the non-job stream lines the service contract allows: blank
/// lines and '#' comments.
bool is_job_line(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string::npos && line[first] != '#';
}

/// An oversized line whose kept prefix opens a comment is still a
/// comment (skipped); anything else oversized becomes a parse-error
/// record — never a silent drop.
bool is_comment_prefix(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string::npos && line[first] == '#';
}

}  // namespace

// -- the daemon pipeline ---------------------------------------------------

struct SweepService::Impl {
  /// A cache miss, parsed and keyed by intake.
  struct Request {
    std::uint64_t seq = 0;  ///< reorder-window sequence, never reused
    JobSpec spec;
    std::string key;
  };

  /// One reorder-window slot: a publisher fills `entry`, then stores
  /// seq + 1 into `published`; the record for seq leaves once the head of
  /// the window reaches it.  Sequence numbers run on across serve()
  /// calls, so the tag names either the slot's current occupant or the one
  /// a window earlier and a slot is never reset.  Intake admits seq only
  /// once seq - W has been emitted, so a slot is never written before it
  /// was drained.
  struct Slot {
    std::atomic<std::uint64_t> published{0};
    std::shared_ptr<const CachedResult> entry;
  };

  using Ring = SpscRing<std::unique_ptr<Request>>;

  /// One worker thread with its job ring and doorbell.
  struct Worker {
    explicit Worker(std::size_t ring_capacity) : ring(ring_capacity) {}
    Ring ring;
    /// Set while the worker sleeps on `bell` (or is about to).
    std::atomic<bool> parked{false};
    std::atomic<std::uint32_t> bell{0};
    std::thread thread;

    void wake() {
      bell.fetch_add(1, std::memory_order_release);
      bell.notify_one();
    }
  };

  explicit Impl(ServiceOptions o)
      : opts(o),
        nworkers(o.workers > 0
                     ? o.workers
                     : static_cast<int>(std::max(
                           1u, std::thread::hardware_concurrency()))),
        cache(o.cache_shards) {
    if (!(opts.job_deadline_ms >= 0.0))
      throw std::invalid_argument(
          "ServiceOptions: job_deadline_ms must be >= 0");
    if (opts.max_line_bytes < 16)
      throw std::invalid_argument(
          "ServiceOptions: max_line_bytes must be >= 16");
    std::size_t window = 1;
    const std::size_t want =
        static_cast<std::size_t>(nworkers) * std::max<std::size_t>(
                                                 opts.ring_capacity, 2) *
        2;
    while (window < want) window <<= 1;
    slots = std::vector<Slot>(window);
    workers.reserve(static_cast<std::size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w)
      workers.push_back(std::make_unique<Worker>(opts.ring_capacity));
    for (auto& w : workers)
      w->thread = std::thread([this, &self = *w] { worker_loop(self); });
  }

  ~Impl() {
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w->wake();
    for (auto& w : workers)
      if (w->thread.joinable()) w->thread.join();
  }

  void worker_loop(Worker& self) {
    int idle = 0;
    for (;;) {
      std::unique_ptr<Request> req;
      while (!self.ring.try_pop(req)) {
        if (stop.load(std::memory_order_acquire)) return;
        // Spin briefly, then yield, then sleep on the doorbell: a daemon
        // waiting for the next job batch must not burn a core.
        if (idle < 64) {
          ++idle;
          util::cpu_relax();
        } else if (idle < 256) {
          ++idle;
          std::this_thread::yield();
        } else {
          park(self);
        }
      }
      idle = 0;
      process(*req);
    }
  }

  /// Sleep until the doorbell rings: a push or shutdown.  The ticket is
  /// read first, so a ring that lands after it makes wait() return at
  /// once.
  void park(Worker& self) {
    const std::uint32_t ticket = self.bell.load(std::memory_order_acquire);
    self.parked.store(true, std::memory_order_relaxed);
    // Dekker pair with notify_parked(): this side stores `parked`, then
    // looks at the ring; intake stores the ring tail, then looks at
    // `parked`.  A full fence between each store and load means at least
    // one side sees the other's store, so no push is slept through.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (self.ring.empty() && !stop.load(std::memory_order_acquire))
      self.bell.wait(ticket, std::memory_order_acquire);
    self.parked.store(false, std::memory_order_relaxed);
  }

  /// Intake, after each push: wake the worker only if it is parked.
  static void notify_parked(Worker& w) {
    // Dekker pair with park(); see there.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (w.parked.load(std::memory_order_relaxed)) w.wake();
  }

  /// Compute a miss, cache it, and publish it.
  /// Workers run every miss this way, and so does intake with a miss no
  /// ring has room for (serve()); intake is never blocked then, so it
  /// skips the drain below and drains on its return.
  void process(const Request& req) {
    std::shared_ptr<CachedResult> computed =
        compute_cell(req.spec, registry, opts.job_deadline_ms);
    if (computed->failed && computed->deadline)
      deadline_errors.fetch_add(1, std::memory_order_relaxed);
    // Transient verdicts are host state, not cell state: caching one
    // would replay it for every later occurrence of the cell and break
    // byte-identity with the one-shot path, which recomputes each
    // occurrence.
    if (opts.use_cache && !(computed->failed && computed->transient))
      cache.insert(req.key, computed);
    post(req.seq, std::move(computed));
    // Dekker pair with intake's blocking read or wait (serve()): this side
    // stores `published` (in post), then loads `intake_blocked`; intake
    // stores `intake_blocked`, then loads `published` (in drain_locked).
    // Either this worker drains, or intake sees the record before it
    // blocks.
    if (intake_blocked.load(std::memory_order_seq_cst))
      try_drain(/*worker=*/true);
  }

  /// Fill seq's slot and mark it ready.  The slot is free: intake admitted
  /// seq into the window.
  void post(std::uint64_t seq, std::shared_ptr<const CachedResult> entry) {
    Slot& slot = slots[seq & (slots.size() - 1)];
    slot.entry = std::move(entry);
    slot.published.store(seq + 1, std::memory_order_seq_cst);
  }

  // -- in-order emission -----------------------------------------------------
  //
  // Whichever thread holds `draining` writes every ready head-of-window
  // record.  A worker writes only while intake is in a read or a wait that
  // may block (`intake_blocked`), and stops once intake is back; the rest
  // of the time intake drains itself, so the warm path keeps its workers
  // on jobs.  A worker that advances `emitted` notifies it: a waiting
  // intake sleeps on it (serve()).

  /// Write every record whose turn has come, unless another thread holds
  /// the drain lock; that holder then sees the record.
  void try_drain(bool worker) {
    do {
      // Dekker pair with process(): a worker stores `published`, then
      // loads `draining` (this exchange); the holder stores `draining`
      // (the release below), then loads `published` (drain_due).  A record
      // published while the lock is held is seen by one of the two.
      if (draining.exchange(true, std::memory_order_seq_cst)) return;
      drain_locked(worker);
      draining.store(false, std::memory_order_seq_cst);
    } while (drain_due(worker));
  }

  /// After a release: is the head record ready, or is output waiting for
  /// a flush while intake may block?
  bool drain_due(bool worker) {
    const bool reading = intake_blocked.load(std::memory_order_seq_cst);
    if (worker && !reading) return false;  // intake drains on its return
    const std::uint64_t seq = emitted.load(std::memory_order_seq_cst);
    return slots[seq & (slots.size() - 1)].published.load(
               std::memory_order_seq_cst) == seq + 1 ||
           (reading && unflushed.load(std::memory_order_relaxed));
  }

  /// Caller holds `draining`.
  void drain_locked(bool worker) {
    const std::uint64_t first = emitted.load(std::memory_order_relaxed);
    std::uint64_t seq = first;
    for (;;) {
      if (worker && !intake_blocked.load(std::memory_order_seq_cst)) break;
      Slot& slot = slots[seq & (slots.size() - 1)];
      if (slot.published.load(std::memory_order_seq_cst) != seq + 1) break;
      const CachedResult& entry = *slot.entry;
      emit_line(*out, line_buf, seq - base, entry.tail);
      if (entry.failed) {
        ++failed;
        slot.entry.reset();
      } else {
        obs::accumulate_totals(totals, entry.report);
        rows.push_back(std::move(slot.entry));
      }
      emitted.store(++seq, std::memory_order_release);
      unflushed.store(true, std::memory_order_relaxed);
    }
    // While intake may block, nothing else would push buffered records
    // out to a reader waiting on them.
    if (unflushed.load(std::memory_order_relaxed) &&
        intake_blocked.load(std::memory_order_seq_cst)) {
      out->flush();
      unflushed.store(false, std::memory_order_relaxed);
    }
    // Only a worker drains while intake waits; intake needs no wake-up
    // from its own drain.
    if (worker && seq != first) emitted.notify_one();
  }

  /// Intake's blocking take of the drain lock, to open or close a batch.
  void lock_drain() {
    while (draining.exchange(true, std::memory_order_seq_cst))
      std::this_thread::yield();
  }

  /// Start a serve() batch writing to @p o; returns the batch's first seq.
  std::uint64_t open_batch(std::ostream& o) {
    lock_drain();
    out = &o;
    failed = 0;
    base = emitted.load(std::memory_order_relaxed);
    draining.store(false, std::memory_order_seq_cst);
    return base;
  }

  /// End the batch (every record emitted): write the summary's frame and
  /// the kept rows straight to the stream, and return the failed-record
  /// count.
  std::uint64_t close_batch() {
    lock_drain();
    const obs::JsonFrame frame = obs::json_frame(totals, rows.size());
    const auto write = [this](const std::string& part) {
      out->write(part.data(), static_cast<std::streamsize>(part.size()));
    };
    write(frame.head);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out->put(',');
      write(rows[i]->row);
    }
    write(frame.tail);
    out->put('\n');
    const std::uint64_t n_failed = failed;
    out = nullptr;
    rows.clear();  // keeps its capacity for the next batch
    totals = {};
    unflushed.store(false, std::memory_order_relaxed);
    draining.store(false, std::memory_order_seq_cst);
    return n_failed;
  }

  ServiceOptions opts;
  int nworkers;
  ResultCache cache;
  MachineRegistry registry;
  std::vector<Slot> slots;
  std::vector<std::unique_ptr<Worker>> workers;
  std::atomic<bool> stop{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<std::uint64_t> deadline_errors{0};

  /// Next seq to emit; advanced only by the `draining` holder.  A waiting
  /// intake sleeps on it.
  std::atomic<std::uint64_t> emitted{0};
  /// The drain lock.
  std::atomic<bool> draining{false};
  /// Intake is in a read or a wait that may block: workers drain (and
  /// flush).
  std::atomic<bool> intake_blocked{false};
  /// Records written since the last flush.
  std::atomic<bool> unflushed{false};
  // The batch being emitted; touched only by the `draining` holder.
  std::ostream* out = nullptr;
  std::uint64_t base = 0;  ///< seq of the batch's job 0
  /// The summary so far: the successful records in job order, whose
  /// entries hold the rendered rows, and the machine totals and trace
  /// counters (totals.rows stays empty).  Holding an entry copies nothing;
  /// a copy of every row would add the whole rows text to the batch.
  std::vector<std::shared_ptr<const CachedResult>> rows;
  obs::SweepSummary totals;
  std::uint64_t failed = 0;
  std::string line_buf;  ///< emit_line's reused buffer
};

SweepService::SweepService(ServiceOptions opts)
    : impl_(std::make_unique<Impl>(opts)) {}

SweepService::~SweepService() = default;

int SweepService::workers() const noexcept { return impl_->nworkers; }

const ResultCache& SweepService::cache() const noexcept {
  return impl_->cache;
}

void SweepService::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_release);
}

ServiceStats SweepService::serve(std::istream& in, std::ostream& out) {
  Impl& impl = *impl_;
  impl.stop_requested.store(false, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t hits0 = impl.cache.hits();
  const std::uint64_t misses0 = impl.cache.misses();
  const std::uint64_t deadline0 =
      impl.deadline_errors.load(std::memory_order_relaxed);
  const std::size_t window = impl.slots.size();
  const auto uworkers = static_cast<std::size_t>(impl.nworkers);

  // Sequence numbers run on across batches; base is this batch's job 0.
  const std::uint64_t base = impl.open_batch(out);
  std::uint64_t submitted = base;
  std::uint64_t emitted = base;  // intake's view of impl.emitted
  std::uint64_t misses = 0;      // round-robin cursor over the workers
  ServiceStats stats;

  // Emit what is ready, then catch intake's view up with every record
  // that went out, on this thread or a worker.
  const auto drain = [&] {
    impl.try_drain(/*worker=*/false);
    emitted = impl.emitted.load(std::memory_order_acquire);
  };

  // Answer the next job on this thread, without queueing it.
  const auto answer = [&](std::shared_ptr<const CachedResult> entry) {
    impl.post(submitted++, std::move(entry));
    drain();
  };
  const auto post_error = [&](std::string tail) {
    auto e = std::make_shared<CachedResult>();
    e->failed = true;
    e->tail = std::move(tail);
    answer(std::move(e));
  };

  // Wait until every record before @p target has been written.  Intake
  // drains itself for a few polls, then hands draining to the workers,
  // as for a blocking read, and sleeps on `emitted`: a worker's drain
  // advances and notifies it.  Every record still missing is a worker's
  // to publish: intake publishes its own answers before it waits.
  const auto wait_emitted = [&](std::uint64_t target) {
    for (int poll = 0; poll < kIntakeSpins; ++poll) {
      drain();
      if (emitted >= target) return;
      util::cpu_relax();
    }
    impl.intake_blocked.store(true, std::memory_order_seq_cst);
    for (;;) {
      drain();
      if (emitted >= target) break;
      impl.emitted.wait(emitted, std::memory_order_acquire);
    }
    impl.intake_blocked.store(false, std::memory_order_seq_cst);
  };

  std::string line;
  for (;;) {
    if (impl.stop_requested.load(std::memory_order_acquire)) break;
    // A read that may block is the one window in which workers write
    // records (and flush them): intake cannot until the read returns.
    // Intake writes what is ready first, so the window spans little more
    // than the read itself.
    std::streambuf* sb = in.rdbuf();
    const bool may_block = in.good() && sb != nullptr && sb->in_avail() <= 0;
    if (may_block) {
      drain();
      impl.intake_blocked.store(true, std::memory_order_seq_cst);
      drain();
    }
    const LineStatus st =
        read_job_line(in, line, impl.opts.max_line_bytes);
    if (may_block) impl.intake_blocked.store(false, std::memory_order_seq_cst);
    if (st == LineStatus::kEof) break;
    const bool oversized = st == LineStatus::kOversized;
    if (oversized ? is_comment_prefix(line) : !is_job_line(line)) continue;
    // Backpressure: never have more than one reorder window in flight.
    if (submitted - emitted >= window) wait_emitted(submitted - window + 1);
    if (oversized) {
      post_error(oversized_tail(impl.opts.max_line_bytes));
      continue;
    }
    // Load shedding: above max_inflight, answer immediately with a shed
    // record instead of queueing (nothing is ever silently dropped).
    if (impl.opts.max_inflight > 0 &&
        submitted - emitted >= impl.opts.max_inflight) {
      ++stats.shed;
      post_error(render_error_tail(
          "shed",
          "intake over capacity: " + std::to_string(submitted - emitted) +
              " jobs in flight (max_inflight " +
              std::to_string(impl.opts.max_inflight) + ")",
          ""));
      continue;
    }
    // Intake answers parse errors and cache hits itself; only a miss is
    // worth a worker's wake-up.
    JobSpec spec;
    try {
      spec = parse_job_line(line);
    } catch (const std::exception& e) {
      post_error(render_error_tail("parse-error", e.what(), ""));
      continue;
    }
    std::string key = cache_key(spec);
    if (impl.opts.use_cache) {
      if (auto hit = impl.cache.find(key)) {
        answer(std::move(hit));
        continue;
      }
    }
    // A miss goes to the first ring with room, from the round-robin
    // cursor on.  With every ring full, intake runs it itself: a deeper
    // queue would only add wait, and intake would otherwise sit idle.
    auto req = std::make_unique<Impl::Request>(
        Impl::Request{submitted, std::move(spec), std::move(key)});
    const std::size_t first = misses++ % uworkers;
    bool queued = false;
    for (std::size_t i = 0; i < uworkers && !queued; ++i) {
      Impl::Worker& target = *impl.workers[(first + i) % uworkers];
      queued = target.ring.try_push(std::move(req));
      if (queued) Impl::notify_parked(target);
    }
    if (!queued) {
      impl.process(*req);
      ++stats.intake_misses;
    }
    ++submitted;
    drain();
  }
  // Graceful drain: intake is closed; finish everything in flight and
  // flush the reorder window before the summary.
  if (emitted < submitted) wait_emitted(submitted);

  stats.jobs = submitted - base;
  stats.failed = impl.close_batch();
  stats.cache_hits = impl.cache.hits() - hits0;
  stats.cache_misses = impl.cache.misses() - misses0;
  stats.deadline_errors =
      impl.deadline_errors.load(std::memory_order_relaxed) - deadline0;
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return stats;
}

// -- the batch reference path ----------------------------------------------

ServiceStats SweepService::run_oneshot(std::istream& in, std::ostream& out,
                                       int workers) {
  const auto t0 = std::chrono::steady_clock::now();

  struct LineSlot {
    std::optional<JobSpec> spec;       // engaged iff prepare succeeded
    std::string tail;                  // pre-filled for parse/prepare errors
    bool failed = false;
    std::size_t driver_index = 0;      // into the SweepJob list
  };

  MachineRegistry registry;
  std::deque<fault::Plan> plans;  // stable addresses for cfg.fault
  std::vector<LineSlot> lines;
  std::vector<simbar::SweepJob> jobs;

  std::string line;
  for (;;) {
    const LineStatus st =
        read_job_line(in, line, ServiceOptions::kDefaultMaxLineBytes);
    if (st == LineStatus::kEof) break;
    if (st == LineStatus::kOversized) {
      if (is_comment_prefix(line)) continue;
      LineSlot slot;
      slot.failed = true;
      slot.tail = oversized_tail(ServiceOptions::kDefaultMaxLineBytes);
      lines.push_back(std::move(slot));
      continue;
    }
    if (!is_job_line(line)) continue;
    LineSlot slot;
    JobSpec spec;
    CachedResult scratch;
    bool parsed = false;
    try {
      spec = parse_job_line(line);
      parsed = true;
    } catch (const std::exception& e) {
      slot.failed = true;
      slot.tail = render_error_tail("parse-error", e.what(), "");
    }
    if (parsed) {
      const bool prepared = classify_into(scratch, [&] {
        const topo::Machine& machine = registry.get(spec.machine);
        simbar::SimRunConfig cfg = make_cfg(spec, machine);
        const simbar::SimBarrierFactory factory = make_factory(spec, machine);
        plans.push_back(spec.fault.any()
                            ? fault::Plan(spec.fault, machine.num_cores(),
                                          machine.num_layers())
                            : fault::Plan());
        if (plans.back().active()) cfg.fault = &plans.back();
        slot.driver_index = jobs.size();
        jobs.push_back(simbar::SweepJob{&machine, factory, cfg});
        slot.spec = spec;
      });
      if (!prepared) {
        slot.failed = true;
        slot.tail = std::move(scratch.tail);
      }
    }
    lines.push_back(std::move(slot));
  }

  const simbar::SweepDriver driver(workers);
  const simbar::MeteredOutcome outcome =
      driver.run_with_metrics_isolated(jobs);
  // JobErrors arrive ascending by job index; walk them with a cursor.
  std::size_t err_cursor = 0;

  std::uint64_t failed = 0;
  std::vector<obs::MetricsReport> reports;
  std::string line_buf;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    LineSlot& slot = lines[i];
    if (slot.spec) {
      const auto& run = outcome.results[slot.driver_index];
      if (run) {
        slot.tail = render_result_tail(*slot.spec, run->result);
        reports.push_back(run->report);
      } else {
        while (err_cursor < outcome.errors.size() &&
               outcome.errors[err_cursor].job_index < slot.driver_index)
          ++err_cursor;
        slot.failed = true;
        if (err_cursor < outcome.errors.size() &&
            outcome.errors[err_cursor].job_index == slot.driver_index) {
          const simbar::JobError& e = outcome.errors[err_cursor];
          slot.tail = render_error_tail(e.kind, e.message, e.diagnostics);
        } else {
          slot.tail = render_error_tail("error", "missing sweep result", "");
        }
      }
    }
    if (slot.failed) ++failed;
    emit_line(out, line_buf, i, slot.tail);
  }

  const obs::SweepSummary summary = obs::aggregate(reports);
  out << obs::to_json(summary) << '\n';

  ServiceStats stats;
  stats.jobs = lines.size();
  stats.failed = failed;
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return stats;
}

}  // namespace armbar::svc

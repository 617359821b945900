#include "armbar/sim/trace.hpp"

#include <algorithm>
#include <sstream>

namespace armbar::sim {

std::string to_string(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kRead: return "read";
    case TraceEvent::Kind::kWrite: return "write";
    case TraceEvent::Kind::kRmw: return "rmw";
    case TraceEvent::Kind::kPoll: return "poll";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(std::min<std::size_t>(capacity, 4096));
}

void Tracer::record(TraceEvent ev) {
  // Attribute to the innermost span open on the event's core.  This runs
  // in engine execution order, which equals simulated-time resumption
  // order, so a poll issued on behalf of a parked waiter lands in the
  // phase the waiter was in when it parked.
  if (ev.core >= 0 && static_cast<std::size_t>(ev.core) < open_.size()) {
    const auto& stack = open_[static_cast<std::size_t>(ev.core)];
    if (!stack.empty()) {
      ev.phase = stack.back().phase;
      ev.round = stack.back().round;
    }
  }

  // Counters first: they must stay exact even when the event log is full.
  PhaseCounters& c = counters_[static_cast<std::size_t>(ev.phase)];
  switch (ev.kind) {
    case TraceEvent::Kind::kRead: ++c.reads; break;
    case TraceEvent::Kind::kWrite: ++c.writes; break;
    case TraceEvent::Kind::kRmw: ++c.rmws; break;
    case TraceEvent::Kind::kPoll: ++c.polls; break;
  }
  c.busy_ps += ev.finish - ev.start;
  if (ev.layer >= 0) {
    const auto layer = static_cast<std::size_t>(ev.layer);
    if (c.layer_transfers.size() <= layer) c.layer_transfers.resize(layer + 1);
    ++c.layer_transfers[layer];
  } else {
    ++c.local_ops;
  }

  if (ev.core >= 0) {
    if (static_cast<std::size_t>(ev.core) >= last_op_.size())
      last_op_.resize(static_cast<std::size_t>(ev.core) + 1);
    last_op_[static_cast<std::size_t>(ev.core)] = LastOp{ev.line, ev.finish};
  }

  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(ev);
}

void Tracer::add_rfo(int core, std::uint64_t n) {
  counters_[static_cast<std::size_t>(current_phase(core))].rfo_invalidations +=
      n;
}

void Tracer::begin_phase(int core, obs::Phase phase, int round,
                         util::Picos now) {
  if (core < 0) return;
  if (static_cast<std::size_t>(core) >= open_.size()) {
    open_.resize(static_cast<std::size_t>(core) + 1);
    span_seq_.resize(static_cast<std::size_t>(core) + 1,
                     std::array<std::uint32_t, obs::kNumPhases>{});
  }
  open_[static_cast<std::size_t>(core)].push_back(
      OpenSpan{now, phase, static_cast<std::int16_t>(round)});
}

void Tracer::end_phase(int core, util::Picos now) {
  if (core < 0 || static_cast<std::size_t>(core) >= open_.size()) return;
  auto& stack = open_[static_cast<std::size_t>(core)];
  if (stack.empty()) return;
  const OpenSpan top = stack.back();
  stack.pop_back();
  if (stack.empty()) {
    // Outermost-span accounting (before any capacity check, like the
    // other counters): total span time plus the per-episode critical
    // path — the k-th outermost span of a phase on a core is that core's
    // k-th episode, so the max over cores per k is the phase's serial
    // floor for that episode.
    PhaseCounters& c = counters_[static_cast<std::size_t>(top.phase)];
    const util::Picos dur = now - top.start;
    c.span_ps += dur;
    auto& seq = span_seq_[static_cast<std::size_t>(core)]
                         [static_cast<std::size_t>(top.phase)];
    const std::uint32_t k = seq++;
    if (c.episode_max_span_ps.size() <= k)
      c.episode_max_span_ps.resize(k + 1, 0);
    c.episode_max_span_ps[k] = std::max(c.episode_max_span_ps[k], dur);
  }
  if (spans_.size() >= capacity_) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(PhaseSpan{top.start, now, core, top.phase, top.round,
                             static_cast<std::int16_t>(stack.size())});
}

obs::Phase Tracer::current_phase(int core) const noexcept {
  if (core < 0 || static_cast<std::size_t>(core) >= open_.size())
    return obs::Phase::kNone;
  const auto& stack = open_[static_cast<std::size_t>(core)];
  return stack.empty() ? obs::Phase::kNone : stack.back().phase;
}

int Tracer::current_round(int core) const noexcept {
  if (core < 0 || static_cast<std::size_t>(core) >= open_.size()) return -1;
  const auto& stack = open_[static_cast<std::size_t>(core)];
  return stack.empty() ? -1 : stack.back().round;
}

Tracer::LastOp Tracer::last_op(int core) const noexcept {
  if (core < 0 || static_cast<std::size_t>(core) >= last_op_.size())
    return LastOp{};
  return last_op_[static_cast<std::size_t>(core)];
}

void Tracer::clear() {
  events_.clear();
  spans_.clear();
  open_.clear();
  span_seq_.clear();
  last_op_.clear();
  for (PhaseCounters& c : counters_) c = PhaseCounters{};
  dropped_ = 0;
  dropped_spans_ = 0;
}

std::vector<Tracer::CoreSummary> Tracer::summarize(int num_cores) const {
  std::vector<CoreSummary> out(
      static_cast<std::size_t>(std::max(num_cores, 0)));
  for (int c = 0; c < num_cores; ++c) out[static_cast<std::size_t>(c)].core = c;
  for (const TraceEvent& ev : events_) {
    if (ev.core < 0 || ev.core >= num_cores) continue;
    CoreSummary& s = out[static_cast<std::size_t>(ev.core)];
    switch (ev.kind) {
      case TraceEvent::Kind::kRead: ++s.reads; break;
      case TraceEvent::Kind::kWrite: ++s.writes; break;
      case TraceEvent::Kind::kRmw: ++s.rmws; break;
      case TraceEvent::Kind::kPoll: ++s.polls; break;
    }
    s.busy_ps += ev.finish - ev.start;
  }
  return out;
}

std::string Tracer::to_csv() const {
  std::ostringstream os;
  os << "start_ps,finish_ps,core,line,kind,layer,phase,round\n";
  for (const TraceEvent& ev : events_) {
    os << ev.start << ',' << ev.finish << ',' << ev.core << ',' << ev.line
       << ',' << to_string(ev.kind) << ',' << static_cast<int>(ev.layer)
       << ',' << obs::to_string(ev.phase) << ',' << ev.round << '\n';
  }
  return os.str();
}

}  // namespace armbar::sim

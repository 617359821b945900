#include "armbar/sim/trace.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

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
  fit(ev.core + 1, ev.layer + 1);
  if (ev.core >= 0) {
    count(ev);
    return;
  }
  ev.phase = obs::Phase::kNone;
  ev.round = -1;
  tally(ev, 0);
}

void Tracer::fit(int num_cores, int num_layers) {
  if (num_cores > 0 && static_cast<std::size_t>(num_cores) > cores_.size())
    cores_.resize(static_cast<std::size_t>(num_cores));
  if (num_layers > 0) {
    const auto layers = static_cast<std::size_t>(num_layers);
    for (PhaseCounters& c : counters_)
      if (c.layer_transfers.size() < layers) c.layer_transfers.resize(layers);
  }
}

void Tracer::log_event(const TraceEvent& ev) { events_.push_back(ev); }

void Tracer::log_span(const PhaseSpan& span) { spans_.push_back(span); }

void Tracer::add_episode(PhaseCounters& c, std::uint32_t k) {
  c.episode_max_span_ps.resize(std::size_t{k} + 1, 0);
}

void Tracer::clear() {
  events_.clear();
  spans_.clear();
  for (CoreState& s : cores_) s = CoreState{};
  for (PhaseCounters& c : counters_) {
    std::vector<std::uint64_t> layers = std::move(c.layer_transfers);
    std::fill(layers.begin(), layers.end(), std::uint64_t{0});
    c = PhaseCounters{};
    c.layer_transfers = std::move(layers);
  }
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

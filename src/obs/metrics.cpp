#include "armbar/obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "json_util.hpp"

namespace armbar::obs {

namespace {

using detail::escaped;
using detail::json_num;

void emit_u64_array(std::ostringstream& os, const std::vector<std::uint64_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    os << v[i];
  }
  os << ']';
}

}  // namespace

std::uint64_t MetricsReport::total_remote_transfers() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : totals.layer_transfers) sum += n;
  return sum;
}

MetricsReport make_metrics(const topo::Machine& machine,
                           const simbar::SimRunConfig& cfg,
                           const simbar::SimResult& result,
                           const sim::Tracer& tracer) {
  MetricsReport report;
  report.machine_name = machine.name();
  report.barrier_name = result.barrier_name;
  report.threads = cfg.threads;
  report.iterations = cfg.iterations;
  report.mean_overhead_ns = result.mean_overhead_ns;
  report.events_processed = result.events_processed;
  report.totals = result.stats;
  for (int l = 0; l < machine.num_layers(); ++l)
    report.layer_names.push_back(machine.layer_info(l).name);

  const auto num_layers = static_cast<std::size_t>(machine.num_layers());
  report.phases.reserve(static_cast<std::size_t>(kNumPhases));
  for (int p = 0; p < kNumPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    const sim::Tracer::PhaseCounters& c = tracer.phase_counters(phase);
    PhaseMetrics m;
    m.phase = phase;
    m.reads = c.reads;
    m.writes = c.writes;
    m.rmws = c.rmws;
    m.polls = c.polls;
    m.local_ops = c.local_ops;
    m.rfo_invalidations = c.rfo_invalidations;
    m.layer_transfers = c.layer_transfers;
    if (m.layer_transfers.size() < num_layers)
      m.layer_transfers.resize(num_layers, 0);
    m.remote_transfers = c.remote_transfers();
    m.busy_ns = static_cast<double>(c.busy_ps) / 1e3;
    m.span_ns = static_cast<double>(c.span_ps) / 1e3;
    // Mean per-episode critical span over post-warmup episodes; when the
    // warmup covers every recorded episode, fall back to all of them.
    const auto& eps = c.episode_max_span_ps;
    if (!eps.empty()) {
      std::size_t skip = static_cast<std::size_t>(std::max(cfg.warmup, 0));
      if (skip >= eps.size()) skip = 0;
      double sum_ps = 0.0;
      for (std::size_t k = skip; k < eps.size(); ++k)
        sum_ps += static_cast<double>(eps[k]);
      m.critical_span_ns =
          sum_ps / static_cast<double>(eps.size() - skip) / 1e3;
    }
    report.phases.push_back(std::move(m));
  }

  report.trace_events = tracer.events().size();
  report.trace_spans = tracer.spans().size();
  report.dropped_events = tracer.dropped();
  report.dropped_spans = tracer.dropped_spans();
  return report;
}

std::string to_json(const MetricsReport& r) {
  // Classic-locale stream + json_num: the output is valid JSON under any
  // global locale, and non-finite doubles (empty phases divide by zero
  // upstream) become null instead of bare nan/inf tokens.
  std::ostringstream os = detail::json_stream();
  os << "{\n";
  os << "  \"machine\": \"" << escaped(r.machine_name) << "\",\n";
  os << "  \"barrier\": \"" << escaped(r.barrier_name) << "\",\n";
  os << "  \"threads\": " << r.threads << ",\n";
  os << "  \"iterations\": " << r.iterations << ",\n";
  os << "  \"mean_overhead_ns\": " << json_num(r.mean_overhead_ns) << ",\n";
  os << "  \"events_processed\": " << r.events_processed << ",\n";
  os << "  \"totals\": {\n";
  os << "    \"local_reads\": " << r.totals.local_reads << ",\n";
  os << "    \"remote_reads\": " << r.totals.remote_reads << ",\n";
  os << "    \"local_writes\": " << r.totals.local_writes << ",\n";
  os << "    \"remote_writes\": " << r.totals.remote_writes << ",\n";
  os << "    \"rmws\": " << r.totals.rmws << ",\n";
  os << "    \"invalidations\": " << r.totals.invalidations << ",\n";
  os << "    \"poll_reads\": " << r.totals.poll_reads << ",\n";
  os << "    \"layer_transfers\": ";
  emit_u64_array(os, r.totals.layer_transfers);
  os << "\n  },\n";
  os << "  \"layers\": [";
  for (std::size_t i = 0; i < r.layer_names.size(); ++i) {
    if (i > 0) os << ',';
    os << "\"" << escaped(r.layer_names[i]) << "\"";
  }
  os << "],\n";
  os << "  \"phases\": [";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseMetrics& m = r.phases[i];
    if (i > 0) os << ',';
    os << "\n    {\n";
    os << "      \"phase\": \"" << to_string(m.phase) << "\",\n";
    os << "      \"reads\": " << m.reads << ",\n";
    os << "      \"writes\": " << m.writes << ",\n";
    os << "      \"rmws\": " << m.rmws << ",\n";
    os << "      \"polls\": " << m.polls << ",\n";
    os << "      \"local_ops\": " << m.local_ops << ",\n";
    os << "      \"rfo_invalidations\": " << m.rfo_invalidations << ",\n";
    os << "      \"remote_transfers\": " << m.remote_transfers << ",\n";
    os << "      \"layer_transfers\": ";
    emit_u64_array(os, m.layer_transfers);
    os << ",\n";
    os << "      \"busy_ns\": " << json_num(m.busy_ns) << ",\n";
    os << "      \"span_ns\": " << json_num(m.span_ns) << ",\n";
    os << "      \"critical_span_ns\": " << json_num(m.critical_span_ns)
       << "\n";
    os << "    }";
  }
  os << "\n  ],\n";
  os << "  \"trace\": {\n";
  os << "    \"events\": " << r.trace_events << ",\n";
  os << "    \"spans\": " << r.trace_spans << ",\n";
  os << "    \"dropped_events\": " << r.dropped_events << ",\n";
  os << "    \"dropped_spans\": " << r.dropped_spans << "\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace armbar::obs

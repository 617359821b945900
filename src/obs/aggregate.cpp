#include "armbar/obs/aggregate.hpp"

#include <algorithm>
#include <cstdio>

#include "armbar/simbar/sweep.hpp"
#include "armbar/util/table.hpp"
#include "json_util.hpp"

namespace armbar::obs {

namespace {

/// Locale-independent integer-percent rendering for explanations.
std::string pct(double share) {
  const double clamped = std::clamp(share, 0.0, 1.0);
  return std::to_string(
             static_cast<int>(clamped * 100.0 + 0.5)) + "%";
}

const PhaseMetrics& phase_of(const MetricsReport& r, Phase p) {
  return r.phases[static_cast<std::size_t>(p)];
}

/// Index of the costliest latency layer of a phase: the layer whose
/// transfers contribute the most total latency (count x layer ns would
/// need the machine; transfer count is what the report carries, so the
/// *highest* layer with a meaningful share is reported — the expensive
/// hops are what the paper's tuning removes).  Returns -1 when the phase
/// performed no remote transfers.
int dominant_layer(const PhaseMetrics& m) {
  if (m.remote_transfers == 0) return -1;
  // Highest layer holding at least 20% of the phase's transfers; falls
  // back to the layer with the plain maximum count.
  for (int l = static_cast<int>(m.layer_transfers.size()) - 1; l >= 0; --l) {
    const std::uint64_t n = m.layer_transfers[static_cast<std::size_t>(l)];
    if (n * 5 >= m.remote_transfers) return l;
  }
  const auto it =
      std::max_element(m.layer_transfers.begin(), m.layer_transfers.end());
  return static_cast<int>(it - m.layer_transfers.begin());
}

std::uint64_t report_total_ops(const MetricsReport& r) {
  std::uint64_t ops = 0;
  for (const PhaseMetrics& m : r.phases)
    ops += m.reads + m.writes + m.rmws + m.polls;
  return ops;
}

}  // namespace

const char* to_string(Bound b) noexcept {
  switch (b) {
    case Bound::kBalanced: return "balanced";
    case Bound::kArrivalBound: return "arrival-bound";
    case Bound::kNotificationBound: return "notification-bound";
  }
  return "?";
}

PhaseShares span_shares(const MetricsReport& report) noexcept {
  double total = 0.0;
  for (const PhaseMetrics& m : report.phases) total += m.span_ns;
  PhaseShares s;
  if (total <= 0.0) return s;
  s.arrival = phase_of(report, Phase::kArrival).span_ns / total;
  s.notification = phase_of(report, Phase::kNotification).span_ns / total;
  s.other = phase_of(report, Phase::kNone).span_ns / total;
  return s;
}

Bound classify(const PhaseShares& shares, double threshold) noexcept {
  // Identical shares (both at threshold) resolve to arrival: the arrival
  // phase is the paper's first optimization target.
  if (shares.arrival >= threshold &&
      shares.arrival >= shares.notification)
    return Bound::kArrivalBound;
  if (shares.notification >= threshold) return Bound::kNotificationBound;
  return Bound::kBalanced;
}

std::string explain(const MetricsReport& report, double threshold) {
  const PhaseShares shares = span_shares(report);
  if (shares.arrival + shares.notification + shares.other <= 0.0)
    return "no phase spans recorded (tracing disabled or unannotated barrier)";

  const Bound bound = classify(shares, threshold);
  const Phase focus =
      bound == Bound::kNotificationBound ? Phase::kNotification
                                         : Phase::kArrival;
  const double focus_share =
      focus == Phase::kArrival ? shares.arrival : shares.notification;
  const PhaseMetrics& m = phase_of(report, focus);

  std::string out = to_string(bound);
  if (bound == Bound::kBalanced) {
    out += ": arrival " + pct(shares.arrival) + " vs notification " +
           pct(shares.notification) + " of span";
  } else {
    out += ": " + pct(focus_share) + " of span in " + to_string(focus);
  }
  const int layer = dominant_layer(m);
  if (layer >= 0) {
    const double layer_share =
        static_cast<double>(m.layer_transfers[static_cast<std::size_t>(layer)]) /
        static_cast<double>(m.remote_transfers);
    out += ", " + pct(layer_share) + " of its transfers cross L" +
           std::to_string(layer);
    if (static_cast<std::size_t>(layer) < report.layer_names.size())
      out += " (" + report.layer_names[static_cast<std::size_t>(layer)] + ")";
  } else {
    out += ", no remote transfers in " + std::string(to_string(focus));
  }
  return out;
}

SweepSummary::Row summary_row(const MetricsReport& r) {
  SweepSummary::Row row;
  row.machine = r.machine_name;
  row.barrier = r.barrier_name;
  row.threads = r.threads;
  row.iterations = r.iterations;
  row.mean_overhead_ns = r.mean_overhead_ns;
  row.shares = span_shares(r);
  row.bound = classify(row.shares);
  row.total_ops = report_total_ops(r);
  row.rfo_invalidations = r.totals.invalidations;
  row.layer_transfers.assign(r.layer_names.size(), 0);
  for (const PhaseMetrics& m : r.phases) {
    row.remote_transfers += m.remote_transfers;
    for (std::size_t l = 0;
         l < m.layer_transfers.size() && l < row.layer_transfers.size(); ++l)
      row.layer_transfers[l] += m.layer_transfers[l];
  }
  row.rfo_per_kop =
      row.total_ops == 0
          ? 0.0
          : 1000.0 * static_cast<double>(row.rfo_invalidations) /
                static_cast<double>(row.total_ops);
  return row;
}

void accumulate_totals(SweepSummary& summary, const MetricsReport& r) {
  // Machine totals, first-occurrence order.
  auto mt = std::find_if(
      summary.machines.begin(), summary.machines.end(),
      [&](const SweepSummary::MachineTotals& t) {
        return t.machine == r.machine_name;
      });
  if (mt == summary.machines.end()) {
    SweepSummary::MachineTotals fresh;
    fresh.machine = r.machine_name;
    fresh.layer_names = r.layer_names;
    fresh.phase_layer_transfers.assign(
        static_cast<std::size_t>(kNumPhases),
        std::vector<std::uint64_t>(r.layer_names.size(), 0));
    summary.machines.push_back(std::move(fresh));
    mt = summary.machines.end() - 1;
  }
  for (int p = 0; p < kNumPhases; ++p) {
    const auto& from = r.phases[static_cast<std::size_t>(p)].layer_transfers;
    auto& into = mt->phase_layer_transfers[static_cast<std::size_t>(p)];
    for (std::size_t l = 0; l < from.size() && l < into.size(); ++l)
      into[l] += from[l];
  }
  mt->total_ops += report_total_ops(r);
  mt->rfo_invalidations += r.totals.invalidations;
  ++mt->runs;

  summary.dropped_events += r.dropped_events;
  summary.dropped_spans += r.dropped_spans;
}

void accumulate(SweepSummary& summary, const MetricsReport& r) {
  summary.rows.push_back(summary_row(r));
  accumulate_totals(summary, r);
}

SweepSummary aggregate(const std::vector<MetricsReport>& reports) {
  SweepSummary summary;
  summary.rows.reserve(reports.size());
  for (const MetricsReport& r : reports) accumulate(summary, r);
  return summary;
}

SweepSummary aggregate(const std::vector<simbar::MeteredRun>& runs) {
  std::vector<MetricsReport> reports;
  reports.reserve(runs.size());
  for (const simbar::MeteredRun& r : runs) reports.push_back(r.report);
  return aggregate(reports);
}

void append_row_json(std::string& out, const SweepSummary::Row& r) {
  using detail::append_escaped;
  using detail::append_int;
  using detail::append_num;
  out += "\n    {\n      \"machine\": \"";
  append_escaped(out, r.machine);
  out += "\",\n      \"barrier\": \"";
  append_escaped(out, r.barrier);
  out += "\",\n      \"threads\": ";
  append_int(out, r.threads);
  out += ",\n      \"iterations\": ";
  append_int(out, r.iterations);
  out += ",\n      \"mean_overhead_ns\": ";
  append_num(out, r.mean_overhead_ns);
  out += ",\n      \"bound\": \"";
  out += to_string(r.bound);
  out += "\",\n      \"span_shares\": {\"arrival\": ";
  append_num(out, r.shares.arrival);
  out += ", \"notification\": ";
  append_num(out, r.shares.notification);
  out += ", \"other\": ";
  append_num(out, r.shares.other);
  out += "},\n      \"total_ops\": ";
  append_int(out, r.total_ops);
  out += ",\n      \"remote_transfers\": ";
  append_int(out, r.remote_transfers);
  out += ",\n      \"rfo_invalidations\": ";
  append_int(out, r.rfo_invalidations);
  out += ",\n      \"rfo_per_kop\": ";
  append_num(out, r.rfo_per_kop);
  out += ",\n      \"layer_transfers\": [";
  for (std::size_t l = 0; l < r.layer_transfers.size(); ++l) {
    if (l > 0) out += ',';
    append_int(out, r.layer_transfers[l]);
  }
  out += "]\n    }";
}

JsonFrame json_frame(const SweepSummary& s, std::size_t runs) {
  using detail::append_escaped;
  using detail::append_int;
  JsonFrame f;
  f.head = "{\n  \"runs\": ";
  append_int(f.head, runs);
  f.head += ",\n  \"rows\": [";

  std::string& out = f.tail;
  out = "\n  ],\n  \"machines\": [";
  for (std::size_t i = 0; i < s.machines.size(); ++i) {
    const SweepSummary::MachineTotals& m = s.machines[i];
    if (i > 0) out += ',';
    out += "\n    {\n      \"machine\": \"";
    append_escaped(out, m.machine);
    out += "\",\n      \"runs\": ";
    append_int(out, m.runs);
    out += ",\n      \"layers\": [";
    for (std::size_t l = 0; l < m.layer_names.size(); ++l) {
      if (l > 0) out += ',';
      out += '"';
      append_escaped(out, m.layer_names[l]);
      out += '"';
    }
    out += "],\n      \"phase_layer_transfers\": {";
    for (int p = 0; p < kNumPhases; ++p) {
      if (p > 0) out += ", ";
      out += '"';
      out += to_string(static_cast<Phase>(p));
      out += "\": [";
      const auto& v = m.phase_layer_transfers[static_cast<std::size_t>(p)];
      for (std::size_t l = 0; l < v.size(); ++l) {
        if (l > 0) out += ',';
        append_int(out, v[l]);
      }
      out += ']';
    }
    out += "},\n      \"total_ops\": ";
    append_int(out, m.total_ops);
    out += ",\n      \"rfo_invalidations\": ";
    append_int(out, m.rfo_invalidations);
    out += "\n    }";
  }
  out += "\n  ],\n  \"trace\": {\"dropped_events\": ";
  append_int(out, s.dropped_events);
  out += ", \"dropped_spans\": ";
  append_int(out, s.dropped_spans);
  out += "}\n}\n";
  return f;
}

std::string to_json(const SweepSummary& s) {
  // A typical row renders to ~430 bytes.  Sizing for that up front spares
  // the copies a doubling string makes; longer rows only cost a regrowth.
  constexpr std::size_t kRowBytes = 512;
  const JsonFrame frame = json_frame(s, s.rows.size());
  std::string out;
  out.reserve(frame.head.size() + s.rows.size() * kRowBytes +
              frame.tail.size());
  out += frame.head;
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    if (i > 0) out += ',';
    append_row_json(out, s.rows[i]);
  }
  out += frame.tail;
  return out;
}

std::string to_table(const SweepSummary& s) {
  std::ostringstream os;
  util::Table rows("Sweep metrics (" + std::to_string(s.rows.size()) +
                   " runs)");
  rows.set_header({"machine", "barrier", "threads", "overhead us", "arrival%",
                   "notify%", "other%", "bound", "remote", "rfo/kop"});
  for (const SweepSummary::Row& r : s.rows) {
    rows.add_row({r.machine, r.barrier, std::to_string(r.threads),
                  util::Table::num(r.mean_overhead_ns / 1e3, 3),
                  util::Table::num(r.shares.arrival * 100.0, 1),
                  util::Table::num(r.shares.notification * 100.0, 1),
                  util::Table::num(r.shares.other * 100.0, 1),
                  to_string(r.bound), std::to_string(r.remote_transfers),
                  util::Table::num(r.rfo_per_kop, 2)});
  }
  os << rows.to_text();

  for (const SweepSummary::MachineTotals& m : s.machines) {
    util::Table layers("Remote transfers by layer on " + m.machine + " (" +
                       std::to_string(m.runs) + " runs)");
    layers.set_header({"layer", "name", "arrival", "notification", "other",
                       "total"});
    for (std::size_t l = 0; l < m.layer_names.size(); ++l) {
      const auto at = [&](Phase p) {
        const auto& v =
            m.phase_layer_transfers[static_cast<std::size_t>(p)];
        return l < v.size() ? v[l] : 0;
      };
      const std::uint64_t arrival = at(Phase::kArrival);
      const std::uint64_t notification = at(Phase::kNotification);
      const std::uint64_t other = at(Phase::kNone);
      layers.add_row({"L" + std::to_string(l), m.layer_names[l],
                      std::to_string(arrival), std::to_string(notification),
                      std::to_string(other),
                      std::to_string(arrival + notification + other)});
    }
    os << '\n' << layers.to_text();
  }
  if (s.dropped_events > 0 || s.dropped_spans > 0)
    os << "\n(log overflow: " << s.dropped_events << " events, "
       << s.dropped_spans
       << " spans dropped across jobs; counters stay exact)\n";
  return os.str();
}

}  // namespace armbar::obs

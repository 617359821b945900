#include "replay.hpp"

#include <numeric>
#include <utility>

#include "armbar/barriers/factory.hpp"
#include "armbar/fault/plan.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/svc/job.hpp"
#include "armbar/topo/placement.hpp"
#include "armbar/topo/platforms.hpp"
#include "io.hpp"

namespace e2e {

namespace simbar = armbar::simbar;
namespace topo = armbar::topo;
namespace fault = armbar::fault;
namespace sim = armbar::sim;

Replayer::Replayer() = default;

StageTimes Replayer::run(const std::string& line) {
  StageTimes st;
  std::int64_t t = now_ns();
  const auto lap = [&t](std::int64_t& into) {
    const std::int64_t now = now_ns();
    into = now - t;
    t = now;
  };

  const svc::JobSpec spec = svc::parse_job_line(line);
  lap(st.parse);
  const std::string key = svc::cache_key(spec);
  lap(st.key);
  const std::shared_ptr<const svc::CachedResult> found = cache_.find(key);
  lap(st.find);
  if (found) {
    st.hit = true;
    reports_.push_back(found->report);
    return st;
  }

  auto it = machines_.find(spec.machine);
  if (it == machines_.end()) {
    t = now_ns();
    auto machine = std::make_unique<const topo::Machine>(
        topo::machine_by_name(spec.machine));
    lap(st.resolve);
    resolve_ns_.push_back(st.resolve);
    it = machines_.emplace(spec.machine, std::move(machine)).first;
  }
  const topo::Machine& machine = *it->second;
  st.hier = machine.num_cores() > 64;

  simbar::SimRunConfig cfg;
  cfg.threads = spec.threads;
  cfg.iterations = spec.iterations;
  cfg.warmup = spec.effective_warmup();
  if (spec.placement == "scatter")
    cfg.core_of_thread = topo::scatter_placement(machine, spec.threads);
  const simbar::SimBarrierFactory factory =
      simbar::sim_factory(armbar::algo_from_string(spec.algo),
                          {.cluster_size = machine.cluster_size()});

  st.faulted = spec.fault.any();
  t = now_ns();
  const fault::Plan plan =
      st.faulted
          ? fault::Plan(spec.fault, machine.num_cores(), machine.num_layers())
          : fault::Plan();
  if (st.faulted) lap(st.plan);
  if (plan.active()) cfg.fault = &plan;

  t = now_ns();
  sim::Tracer tracer(0);
  const simbar::SimResult result =
      simbar::measure_barrier(machine, factory, cfg, &tracer);
  lap(st.measure);
  auto entry = std::make_shared<svc::CachedResult>();
  entry->report = obs::make_metrics(machine, cfg, result, tracer);
  lap(st.metrics);
  reports_.push_back(entry->report);
  t = now_ns();
  cache_.insert(key, std::move(entry));
  lap(st.insert);

  const sim::MemStats& m = result.stats;
  st.sim.events = result.events_processed;
  st.sim.mem_ops = m.local_reads + m.remote_reads + m.local_writes +
                   m.remote_writes + m.rmws;
  st.sim.remote_transfers = std::accumulate(
      m.layer_transfers.begin(), m.layer_transfers.end(), std::uint64_t{0});
  st.sim.rfo_invalidations = m.invalidations;
  counts_.events += st.sim.events;
  counts_.mem_ops += st.sim.mem_ops;
  counts_.remote_transfers += st.sim.remote_transfers;
  counts_.rfo_invalidations += st.sim.rfo_invalidations;
  ClassCost& c = cost_[st.faulted][st.hier];
  c.measure_ns += st.measure;
  c.events += result.events_processed;
  return st;
}

double Replayer::ns_per_event(bool faulted, bool hier) const {
  const ClassCost& c = cost_[faulted][hier];
  return c.events == 0 ? 0.0
                       : static_cast<double>(c.measure_ns) /
                             static_cast<double>(c.events);
}

Accounting account(const std::vector<JobTiming>& jobs) {
  Accounting a;
  a.handoff_us.reserve(jobs.size());
  a.emit_wait_us.reserve(jobs.size());
  double attributed = 0.0;
  double total = 0.0;
  for (const JobTiming& j : jobs) {
    a.handoff_us.push_back(static_cast<double>(j.written - j.read - j.work) *
                           1e-3);
    a.emit_wait_us.push_back(static_cast<double>(j.written - j.due - j.work) *
                             1e-3);
    attributed += static_cast<double>(j.work + j.lag);
    total += static_cast<double>(j.written - j.due);
  }
  a.unaccounted_ratio = total > 0.0 ? 1.0 - attributed / total : 0.0;
  return a;
}

}  // namespace e2e

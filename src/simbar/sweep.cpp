#include "armbar/simbar/sweep.hpp"

#include <atomic>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "../obs/json_util.hpp"
#include "armbar/sim/error.hpp"
#include "armbar/sim/trace.hpp"

namespace armbar::simbar {

namespace {

void validate_jobs(const std::vector<SweepJob>& jobs) {
  for (const SweepJob& j : jobs) {
    if (j.machine == nullptr)
      throw std::invalid_argument("SweepDriver::run: job without machine");
    if (!j.factory)
      throw std::invalid_argument("SweepDriver::run: job without factory");
  }
}

/// Claim-by-counter worker pool: run_one(i) for every i < njobs, with at
/// most @p workers threads.  A single worker runs inline on the calling
/// thread (no pool, same results).
void run_pool(std::size_t njobs, int workers,
              const std::function<void(std::size_t)>& run_one) {
  const int pool = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), njobs));
  if (pool <= 1) {
    for (std::size_t i = 0; i < njobs; ++i) run_one(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(pool));
  for (int w = 0; w < pool; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < njobs; i = next.fetch_add(1, std::memory_order_relaxed)) {
        run_one(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Rethrow the first failure by job index — deterministic regardless of
/// which worker hit it or when.
void rethrow_first(std::vector<std::exception_ptr>& errors) {
  for (std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

Failure classify_current_exception() {
  try {
    throw;
  } catch (const sim::DeadlockError& e) {
    return {sim::DeadlockError::kind_name(e.kind()), e.what(),
            sim::describe(e), sim::DeadlockError::transient(e.kind())};
  } catch (const std::logic_error& e) {  // std::invalid_argument included
    return {"invalid-argument", e.what(), "", false};
  } catch (const std::exception& e) {
    return {"error", e.what(), "", true};
  } catch (...) {
    return {"error", "unknown exception", "", true};
  }
}

std::string errors_to_json(const std::vector<JobError>& errors) {
  namespace d = obs::detail;
  std::ostringstream os = d::json_stream();
  os << "[";
  bool first = true;
  for (const JobError& e : errors) {
    os << (first ? "\n" : ",\n") << "  {\"job_index\": " << e.job_index
       << ", \"machine\": \"" << d::escaped(e.machine_name)
       << "\", \"threads\": " << e.threads << ", \"kind\": \""
       << d::escaped(e.kind) << "\", \"message\": \"" << d::escaped(e.message)
       << "\", \"diagnostics\": \"" << d::escaped(e.diagnostics)
       << "\"}";
    first = false;
  }
  os << (first ? "]" : "\n]");
  return os.str();
}

SweepDriver::SweepDriver(int workers)
    : workers_(workers > 0 ? workers : default_workers()) {}

int SweepDriver::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<SimResult> SweepDriver::run(
    const std::vector<SweepJob>& jobs) const {
  validate_jobs(jobs);

  std::vector<SimResult> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  run_pool(jobs.size(), workers_, [&](std::size_t i) {
    try {
      results[i] = measure_barrier(*jobs[i].machine, jobs[i].factory,
                                   jobs[i].cfg, jobs[i].tracer);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  rethrow_first(errors);
  return results;
}

std::vector<MeteredRun> SweepDriver::run_with_metrics(
    const std::vector<SweepJob>& jobs, std::size_t trace_capacity) const {
  validate_jobs(jobs);
  for (const SweepJob& j : jobs)
    if (j.tracer != nullptr)
      throw std::invalid_argument(
          "SweepDriver::run_with_metrics: the driver owns the tracers; "
          "jobs must not carry one (use run() for caller-owned tracers)");

  std::vector<MeteredRun> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  run_pool(jobs.size(), workers_, [&](std::size_t i) {
    try {
      // One isolated tracer per job, alive only for the measurement: the
      // exact per-phase counters are folded into the report and the
      // (possibly capacity-0) log is discarded with the tracer.
      sim::Tracer tracer(trace_capacity);
      results[i].result = measure_barrier(*jobs[i].machine, jobs[i].factory,
                                          jobs[i].cfg, &tracer);
      results[i].report = obs::make_metrics(*jobs[i].machine, jobs[i].cfg,
                                            results[i].result, tracer);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  rethrow_first(errors);
  return results;
}

MeteredOutcome SweepDriver::run_with_metrics_isolated(
    const std::vector<SweepJob>& jobs, std::size_t trace_capacity) const {
  validate_jobs(jobs);
  for (const SweepJob& j : jobs)
    if (j.tracer != nullptr)
      throw std::invalid_argument(
          "SweepDriver::run_with_metrics_isolated: the driver owns the "
          "tracers; jobs must not carry one (use run() for caller-owned "
          "tracers)");

  MeteredOutcome out;
  out.results.resize(jobs.size());
  std::vector<std::optional<JobError>> errors(jobs.size());
  run_pool(jobs.size(), workers_, [&](std::size_t i) {
    try {
      sim::Tracer tracer(trace_capacity);
      MeteredRun run;
      run.result = measure_barrier(*jobs[i].machine, jobs[i].factory,
                                   jobs[i].cfg, &tracer);
      run.report =
          obs::make_metrics(*jobs[i].machine, jobs[i].cfg, run.result, tracer);
      out.results[i] = std::move(run);
    } catch (...) {
      Failure f = classify_current_exception();
      errors[i] = JobError{i, jobs[i].machine->name(), jobs[i].cfg.threads,
                           std::move(f.kind), std::move(f.message),
                           std::move(f.diagnostics)};
    }
  });
  // Assemble the error section by scanning slots in job order after the
  // pool joins — identical for any worker count or claim interleaving.
  for (std::optional<JobError>& e : errors)
    if (e) out.errors.push_back(std::move(*e));
  return out;
}

}  // namespace armbar::simbar

#pragma once
// Serial replay of service jobs through the public functions the service
// calls, timing each call from outside the program.
//
// SweepService::serve() runs a job as: parse_job_line, cache_key, a cache
// probe, and on a miss machine resolve, fault::Plan, measure_barrier,
// make_metrics and a cache insert.  The Replayer makes the same calls in
// the same order on the benchmark thread, against its own ResultCache, so
// replaying a workload's lines in order reproduces the service's hits and
// misses.  Spans inside the program are left to a later change; what the
// replay cannot attribute shows up in the accounting as unaccounted time.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "armbar/obs/metrics.hpp"
#include "armbar/svc/cache.hpp"
#include "armbar/topo/machine.hpp"

namespace e2e {

namespace obs = armbar::obs;
namespace svc = armbar::svc;

/// Exact simulator counts, of one simulation or summed over many.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t mem_ops = 0;
  std::uint64_t remote_transfers = 0;
  std::uint64_t rfo_invalidations = 0;

  bool operator==(const SimCounts&) const = default;
};

/// Timed calls of one replayed job (nanoseconds; 0 = call not made).
struct StageTimes {
  std::int64_t parse = 0;
  std::int64_t key = 0;
  std::int64_t find = 0;
  std::int64_t resolve = 0;  ///< first use of a machine only
  std::int64_t plan = 0;     ///< faulted misses only
  std::int64_t measure = 0;
  std::int64_t metrics = 0;
  std::int64_t insert = 0;
  bool hit = false;
  bool faulted = false;
  bool hier = false;  ///< machine has more than 64 cores
  SimCounts sim;      ///< exact counts of the miss; zero on a hit

  /// Sum of every timed call: the job's replayed work.
  std::int64_t work() const noexcept {
    return parse + key + find + resolve + plan + measure + metrics + insert;
  }
};

class Replayer {
 public:
  Replayer();

  /// Replay one job line.  Throws on a line the service would answer
  /// with an error record (the workloads generate none).
  StageTimes run(const std::string& line);

  /// Counts summed over every replayed miss.
  const SimCounts& counts() const noexcept { return counts_; }
  /// Per-class simulator cost: measure time over events, for plain,
  /// faulted and hier (more than 64 cores) misses.
  double ns_per_event(bool faulted, bool hier) const;
  /// machine_by_name time of each distinct machine, in first-use order.
  const std::vector<std::int64_t>& resolve_ns() const noexcept {
    return resolve_ns_;
  }
  /// Report of every replayed job, hit or miss, as serve() keeps them.
  const std::vector<obs::MetricsReport>& reports() const noexcept {
    return reports_;
  }
  void clear_reports() { reports_.clear(); }

 private:
  struct ClassCost {
    std::int64_t measure_ns = 0;
    std::uint64_t events = 0;
  };

  svc::ResultCache cache_;
  std::map<std::string, std::unique_ptr<const armbar::topo::Machine>>
      machines_;
  std::vector<std::int64_t> resolve_ns_;
  SimCounts counts_;
  ClassCost cost_[2][2];  // [faulted][hier]
  std::vector<obs::MetricsReport> reports_;
};

/// One job as seen from outside the program: when its line was due, when
/// serve() read it and wrote its record, how late the generator handed it
/// over, and its replayed work (all nanoseconds).
struct JobTiming {
  std::int64_t due = 0;
  std::int64_t read = 0;
  std::int64_t written = 0;
  std::int64_t lag = 0;
  std::int64_t work = 0;
};

/// Per-job latency split into what the replay measured and the rest.
struct Accounting {
  std::vector<double> handoff_us;    ///< (written - read) - work
  std::vector<double> emit_wait_us;  ///< (written - due) - work
  /// 1 - (sum of work and lag) / (sum of written - due): the share of job
  /// latency that timing calls from outside cannot attribute.
  double unaccounted_ratio = 0.0;
};

Accounting account(const std::vector<JobTiming>& jobs);

}  // namespace e2e
